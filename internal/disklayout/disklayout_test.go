package disklayout

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/fserr"
)

func validSB(t *testing.T) *Superblock {
	t.Helper()
	sb, err := Geometry(4096, 512, 64)
	if err != nil {
		t.Fatalf("Geometry: %v", err)
	}
	return sb
}

func TestSuperblockRoundTrip(t *testing.T) {
	sb := validSB(t)
	sb.Generation = 42
	sb.Clean = 0
	got, err := DecodeSuperblock(EncodeSuperblock(sb))
	if err != nil {
		t.Fatalf("DecodeSuperblock: %v", err)
	}
	if *got != *sb {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, sb)
	}
	// A reused block encodes to the same bytes as a fresh one.
	reused := []byte(strings.Repeat("\xA5", BlockSize))
	PutSuperblock(reused, sb)
	if string(reused) != string(EncodeSuperblock(sb)) {
		t.Error("PutSuperblock into a used block differs from EncodeSuperblock")
	}
}

func TestSuperblockChecksumDetectsFlip(t *testing.T) {
	sb := validSB(t)
	enc := EncodeSuperblock(sb)
	for _, off := range []int{0, 5, 17, 63, BlockSize - 5, BlockSize - 1} {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x40
		if _, err := DecodeSuperblock(mut); !errors.Is(err, fserr.ErrCorrupt) {
			t.Errorf("flip at %d: err=%v, want ErrCorrupt", off, err)
		}
	}
}

func TestSuperblockValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Superblock)
	}{
		{"bad magic", func(sb *Superblock) { sb.Magic = 0xdead }},
		{"bad version", func(sb *Superblock) { sb.Version = 99 }},
		{"bad block size", func(sb *Superblock) { sb.BlockSizeField = 512 }},
		{"tiny image", func(sb *Superblock) { sb.NumBlocks = 4 }},
		{"zero inodes", func(sb *Superblock) { sb.NumInodes = 0 }},
		{"overlapping bitmap", func(sb *Superblock) { sb.BlockBitmapStart = sb.InodeBitmapStart }},
		{"region past end", func(sb *Superblock) { sb.JournalLen = sb.NumBlocks }},
		{"data before journal end", func(sb *Superblock) { sb.DataStart = sb.JournalStart }},
		{"data past end", func(sb *Superblock) { sb.DataStart = sb.NumBlocks }},
		{"inode table too small", func(sb *Superblock) { sb.InodeTableLen = 0 }},
		{"root out of range", func(sb *Superblock) { sb.RootIno = sb.NumInodes }},
		{"root zero", func(sb *Superblock) { sb.RootIno = 0 }},
		{"journal too small", func(sb *Superblock) { sb.JournalLen = 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sb := validSB(t)
			tc.mut(sb)
			if err := sb.Validate(); !errors.Is(err, fserr.ErrCorrupt) {
				t.Errorf("Validate after %s: err=%v, want ErrCorrupt", tc.name, err)
			}
		})
	}
}

func TestGeometryRegionsDisjointAndOrdered(t *testing.T) {
	for _, blocks := range []uint32{128, 1024, 65536, 1 << 20} {
		sb, err := Geometry(blocks, 0, 0)
		if err != nil {
			t.Fatalf("Geometry(%d): %v", blocks, err)
		}
		if err := sb.Validate(); err != nil {
			t.Errorf("Geometry(%d) invalid: %v", blocks, err)
		}
		if sb.DataBlocks() == 0 {
			t.Errorf("Geometry(%d): no data blocks", blocks)
		}
	}
}

func TestGeometryTooSmall(t *testing.T) {
	if _, err := Geometry(8, 0, 0); !errors.Is(err, fserr.ErrInvalid) {
		t.Errorf("Geometry(8): err=%v, want ErrInvalid", err)
	}
	// Large journal squeezes out the data region.
	if _, err := Geometry(64, 64, 60); !errors.Is(err, fserr.ErrInvalid) {
		t.Errorf("Geometry with oversized journal: err=%v, want ErrInvalid", err)
	}
}

func TestInodeRoundTrip(t *testing.T) {
	ino := &Inode{
		Mode:  MkMode(TypeFile, 0o644),
		Nlink: 3, UID: 1000, GID: 1000,
		Size: 123456, Atime: 1, Mtime: 2, Ctime: 3,
		Indirect: 900, DblIndir: 901, Generation: 7, Flags: 1,
	}
	for i := range ino.Direct {
		ino.Direct[i] = uint32(800 + i)
	}
	got, err := DecodeInode(EncodeInode(ino))
	if err != nil {
		t.Fatalf("DecodeInode: %v", err)
	}
	if *got != *ino {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, ino)
	}
}

func TestInodeRoundTripProperty(t *testing.T) {
	f := func(mode, nlink uint16, uid, gid, ind, dbl, gen, flags uint32, size int64, a, m, c uint64) bool {
		ino := &Inode{
			Mode: MkMode(uint16(mode)%4, mode), Nlink: nlink,
			UID: uid, GID: gid,
			Size:  size % MaxFileSize,
			Atime: a, Mtime: m, Ctime: c,
			Indirect: ind, DblIndir: dbl, Generation: gen, Flags: flags,
		}
		if ino.Size < 0 {
			ino.Size = -ino.Size
		}
		got, err := DecodeInode(EncodeInode(ino))
		return err == nil && *got == *ino
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInodeChecksumDetectsFlip(t *testing.T) {
	ino := &Inode{Mode: MkMode(TypeDir, 0o755), Nlink: 2, Size: BlockSize}
	enc := EncodeInode(ino)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 64; trial++ {
		mut := append([]byte(nil), enc...)
		mut[rng.Intn(InodeSize)] ^= 1 << rng.Intn(8)
		got, err := DecodeInode(mut)
		if err == nil && *got == *ino {
			// A flip that decodes identically would be a CRC collision.
			t.Errorf("trial %d: corruption not detected and value unchanged", trial)
		}
	}
}

func TestDecodeInodeRejects(t *testing.T) {
	// Bad type.
	ino := &Inode{Mode: MkMode(TypeSym+1, 0)}
	if _, err := DecodeInode(EncodeInode(ino)); !errors.Is(err, fserr.ErrCorrupt) {
		t.Errorf("bad type: err=%v, want ErrCorrupt", err)
	}
	// Oversized.
	ino = &Inode{Mode: MkMode(TypeFile, 0), Size: MaxFileSize + 1}
	if _, err := DecodeInode(EncodeInode(ino)); !errors.Is(err, fserr.ErrCorrupt) {
		t.Errorf("oversize: err=%v, want ErrCorrupt", err)
	}
	// Short buffer.
	if _, err := DecodeInode(make([]byte, 10)); !errors.Is(err, fserr.ErrCorrupt) {
		t.Errorf("short buffer: err=%v, want ErrCorrupt", err)
	}
}

func TestInodeValidatePointers(t *testing.T) {
	sb := validSB(t)
	ino := &Inode{Mode: MkMode(TypeFile, 0o644)}
	ino.Direct[0] = sb.DataStart
	ino.Direct[1] = sb.NumBlocks - 1
	if err := ino.ValidatePointers(sb); err != nil {
		t.Errorf("in-range pointers rejected: %v", err)
	}
	ino.Direct[2] = sb.DataStart - 1 // inside metadata
	if err := ino.ValidatePointers(sb); !errors.Is(err, fserr.ErrCorrupt) {
		t.Errorf("metadata pointer: err=%v, want ErrCorrupt", err)
	}
	ino.Direct[2] = 0
	ino.DblIndir = sb.NumBlocks // past end
	if err := ino.ValidatePointers(sb); !errors.Is(err, fserr.ErrCorrupt) {
		t.Errorf("out-of-range pointer: err=%v, want ErrCorrupt", err)
	}
}

// TestValidatePointersSuccessPathAllocatesNothing pins the cost of the check
// every persist and every shadow inode read pays per bmap inode: labels are
// built only for the pointer that fails, and they still name it.
func TestValidatePointersSuccessPathAllocatesNothing(t *testing.T) {
	sb := validSB(t)
	ino := &Inode{Mode: MkMode(TypeDir, 0o755), Indirect: sb.DataStart + 1, DblIndir: sb.DataStart + 2}
	for i := range ino.Direct {
		ino.Direct[i] = sb.DataStart + uint32(i)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := ino.ValidatePointers(sb); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ValidatePointers on a valid bmap inode: %v allocs per run, want 0", n)
	}
	for what, set := range map[string]func(*Inode){
		"direct[7]":       func(i *Inode) { i.Direct[7] = sb.NumBlocks },
		"indirect":        func(i *Inode) { i.Indirect = 1 },
		"double-indirect": func(i *Inode) { i.DblIndir = sb.NumBlocks + 9 },
	} {
		bad := *ino
		set(&bad)
		err := bad.ValidatePointers(sb)
		if !errors.Is(err, fserr.ErrCorrupt) || !strings.Contains(err.Error(), what+" pointer") {
			t.Errorf("%s out of range: err=%v, want ErrCorrupt naming it", what, err)
		}
	}
}

func TestDirentRoundTrip(t *testing.T) {
	names := []string{"a", "hello.txt", string(make([]byte, 0)), ""}
	_ = names
	b := make([]byte, DirentSize)
	for _, name := range []string{"a", "hello.txt", "x.y-z_1234", string(bytesOf('n', MaxNameLen))} {
		EncodeDirent(b, Dirent{Ino: 77, Name: name})
		got, err := DecodeDirent(b)
		if err != nil {
			t.Fatalf("DecodeDirent(%q): %v", name, err)
		}
		if got.Ino != 77 || got.Name != name {
			t.Errorf("round trip %q: got %+v", name, got)
		}
	}
}

func bytesOf(c byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = c
	}
	return b
}

func TestDirentFreeSlot(t *testing.T) {
	b := make([]byte, DirentSize)
	d, err := DecodeDirent(b)
	if err != nil || d.Ino != 0 {
		t.Errorf("free slot: d=%+v err=%v", d, err)
	}
}

func TestDirentRejects(t *testing.T) {
	b := make([]byte, DirentSize)
	EncodeDirent(b, Dirent{Ino: 5, Name: "ok"})
	b[4] = 0 // nameLen = 0 with nonzero ino
	b[5] = 0
	if _, err := DecodeDirent(b); !errors.Is(err, fserr.ErrCorrupt) {
		t.Errorf("zero namelen: err=%v, want ErrCorrupt", err)
	}
	EncodeDirent(b, Dirent{Ino: 5, Name: "ok"})
	b[4] = MaxNameLen + 1
	if _, err := DecodeDirent(b); !errors.Is(err, fserr.ErrCorrupt) {
		t.Errorf("oversized namelen: err=%v, want ErrCorrupt", err)
	}
	EncodeDirent(b, Dirent{Ino: 5, Name: "ab"})
	b[9] = '/' // illegal byte inside the name
	if _, err := DecodeDirent(b); !errors.Is(err, fserr.ErrCorrupt) {
		t.Errorf("slash in name: err=%v, want ErrCorrupt", err)
	}
}

func TestEncodeDirentPanicsOnLongName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("EncodeDirent accepted an oversized name")
		}
	}()
	EncodeDirent(make([]byte, DirentSize), Dirent{Ino: 1, Name: string(bytesOf('q', MaxNameLen+1))})
}

func TestValidName(t *testing.T) {
	for _, name := range []string{"a", "file.txt", string(bytesOf('m', MaxNameLen))} {
		if err := ValidName(name); err != nil {
			t.Errorf("ValidName(%q) = %v, want nil", name, err)
		}
	}
	bad := map[string]error{
		"":                                 fserr.ErrInvalid,
		".":                                fserr.ErrInvalid,
		"..":                               fserr.ErrInvalid,
		"a/b":                              fserr.ErrInvalid,
		"nul\x00byte":                      fserr.ErrInvalid,
		string(bytesOf('q', MaxNameLen+1)): fserr.ErrNameTooLong,
	}
	for name, want := range bad {
		if err := ValidName(name); !errors.Is(err, want) {
			t.Errorf("ValidName(%q) = %v, want %v", name, err, want)
		}
	}
}

func TestModePacking(t *testing.T) {
	m := MkMode(TypeDir, 0o755)
	if ModeType(m) != TypeDir || ModePerm(m) != 0o755 {
		t.Errorf("MkMode(dir,755): type=%d perm=%o", ModeType(m), ModePerm(m))
	}
	// Permission bits must not bleed into the type.
	m = MkMode(TypeFile, 0o7777)
	if ModeType(m) != TypeFile {
		t.Errorf("perm bits corrupted type: %d", ModeType(m))
	}
}

func TestInodeLoc(t *testing.T) {
	sb := validSB(t)
	blk, off := sb.InodeLoc(0)
	if blk != sb.InodeTableStart || off != 0 {
		t.Errorf("InodeLoc(0) = (%d,%d)", blk, off)
	}
	blk, off = sb.InodeLoc(InodesPerBlock + 3)
	if blk != sb.InodeTableStart+1 || off != 3*InodeSize {
		t.Errorf("InodeLoc(%d) = (%d,%d)", InodesPerBlock+3, blk, off)
	}
}

func TestBitmapBasics(t *testing.T) {
	bm := make([]byte, BlockSize)
	if TestBit(bm, 100) {
		t.Error("fresh bitmap has bit 100 set")
	}
	SetBit(bm, 100)
	if !TestBit(bm, 100) {
		t.Error("SetBit(100) did not stick")
	}
	if TestBit(bm, 99) || TestBit(bm, 101) {
		t.Error("SetBit(100) disturbed neighbors")
	}
	ClearBit(bm, 100)
	if TestBit(bm, 100) {
		t.Error("ClearBit(100) did not stick")
	}
}

func TestBitmapOutOfRangeReadsAsSet(t *testing.T) {
	bm := make([]byte, 8)
	if !TestBit(bm, 64) {
		t.Error("out-of-range bit reads as free; it must read as allocated")
	}
	SetBit(bm, 1000) // must not panic
	ClearBit(bm, 1000)
}

func TestFindFree(t *testing.T) {
	bm := make([]byte, BlockSize)
	limit := uint32(100)
	for i := uint32(0); i < limit; i++ {
		SetBit(bm, i)
	}
	if _, ok := FindFree(bm, 0, limit); ok {
		t.Error("FindFree found a bit in a full bitmap")
	}
	ClearBit(bm, 37)
	got, ok := FindFree(bm, 0, limit)
	if !ok || got != 37 {
		t.Errorf("FindFree = (%d,%v), want (37,true)", got, ok)
	}
	// Hint past the free bit must wrap around.
	got, ok = FindFree(bm, 50, limit)
	if !ok || got != 37 {
		t.Errorf("FindFree with hint 50 = (%d,%v), want (37,true)", got, ok)
	}
	// Hint at or past limit is normalized.
	got, ok = FindFree(bm, limit+10, limit)
	if !ok || got != 37 {
		t.Errorf("FindFree with big hint = (%d,%v), want (37,true)", got, ok)
	}
	if _, ok := FindFree(bm, 0, 0); ok {
		t.Error("FindFree with limit 0 found a bit")
	}
}

func TestFindFreeProperty(t *testing.T) {
	f := func(seed int64, hint uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		bm := make([]byte, 64)
		limit := uint32(64 * 8)
		nset := rng.Intn(int(limit))
		for i := 0; i < nset; i++ {
			SetBit(bm, uint32(rng.Intn(int(limit))))
		}
		got, ok := FindFree(bm, hint%limit, limit)
		if !ok {
			return CountSet(bm, 0, limit) == limit
		}
		return got < limit && !TestBit(bm, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCountSet(t *testing.T) {
	bm := make([]byte, 16)
	SetBit(bm, 0)
	SetBit(bm, 7)
	SetBit(bm, 8)
	SetBit(bm, 127)
	if got := CountSet(bm, 0, 128); got != 4 {
		t.Errorf("CountSet = %d, want 4", got)
	}
	if got := CountSet(bm, 0, 8); got != 2 {
		t.Errorf("CountSet(hi 8) = %d, want 2", got)
	}
	if got := CountSet(bm, 7, 9); got != 2 {
		t.Errorf("CountSet(7,9) = %d, want 2", got)
	}
	if got := CountSet(bm, 100, 1000); got != 1 {
		t.Errorf("CountSet past the end = %d, want 1 (bits bm does not store are not counted)", got)
	}
}

// TestBitmapScansMatchPerBit holds the byte- and word-at-a-time scans to the
// one-bit-at-a-time definition on random bitmaps and ranges, including ranges
// that start and end inside a byte or a 64-bit word.
func TestBitmapScansMatchPerBit(t *testing.T) {
	f := func(seed int64, a, b uint16, dense bool) bool {
		rng := rand.New(rand.NewSource(seed))
		bm := make([]byte, 96)
		nbits := uint32(len(bm) * 8)
		for i := range bm {
			if dense {
				bm[i] = 0xff
			}
		}
		for i := 0; i < rng.Intn(40); i++ {
			bit := uint32(rng.Intn(int(nbits)))
			if dense {
				ClearBit(bm, bit)
			} else {
				SetBit(bm, bit)
			}
		}
		lo, hi := uint32(a)%nbits, uint32(b)%(nbits+64) // hi may run past the end
		if lo > hi {
			lo, hi = hi, lo
		}
		var wantCount uint32
		wantClear, wantSet := hi, hi
		for i := lo; i < hi && i < nbits; i++ {
			if TestBit(bm, i) {
				wantCount++
				if wantSet == hi {
					wantSet = i
				}
			} else if wantClear == hi {
				wantClear = i
			}
		}
		if got := CountSet(bm, lo, hi); got != wantCount {
			t.Logf("CountSet(%d,%d) = %d, want %d", lo, hi, got, wantCount)
			return false
		}
		if got, ok := FirstClear(bm, lo, hi); ok != (wantClear != hi) || (ok && got != wantClear) {
			t.Logf("FirstClear(%d,%d) = (%d,%v), want %d", lo, hi, got, ok, wantClear)
			return false
		}
		if got, ok := NextSet(bm, lo, hi); ok != (wantSet != hi) || (ok && got != wantSet) {
			t.Logf("NextSet(%d,%d) = (%d,%v), want %d", lo, hi, got, ok, wantSet)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMaxFileGeometry(t *testing.T) {
	if MaxFileBlocks != 12+1024+1024*1024 {
		t.Errorf("MaxFileBlocks = %d", MaxFileBlocks)
	}
	if MaxFileSize != int64(MaxFileBlocks)*BlockSize {
		t.Errorf("MaxFileSize = %d", MaxFileSize)
	}
}
