// Package disklayout defines the on-disk format shared by the base
// filesystem, the shadow filesystem, mkfs, and fsck.
//
// The paper requires that the shadow adhere to "the same API and on-disk
// formats as the base filesystem it enhances"; centralizing the format here
// is what makes that sharing checkable. Every structure carries a CRC32C
// checksum so both filesystems (and especially the shadow, which trusts
// nothing) can validate what they read.
//
// Geometry, in 4 KiB blocks:
//
//	block 0                  superblock
//	[InodeBitmapStart, ...)  inode allocation bitmap
//	[BlockBitmapStart, ...)  data block allocation bitmap
//	[InodeTableStart, ...)   inode table, 32 inodes of 128 B per block
//	[JournalStart, ...)      physical-block write-ahead journal
//	[DataStart, NumBlocks-1) data and indirect blocks
//	block NumBlocks-1        backup superblock
//
// The last block holds a backup copy of the superblock. The primary is
// rewritten in place at mount and unmount (and by journal checkpoints), so a
// crash can tear it mid-write; without a second copy the image becomes
// unrecoverable — the geometry needed to even locate the journal lives in
// the block that was lost. Writers update the backup before the primary so at
// most one copy is torn at any crash point, and recovery falls back to the
// backup (then self-heals the primary) when the primary fails its checksum.
package disklayout

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/fserr"
)

// Fundamental format constants.
const (
	// BlockSize is the size of every on-disk block in bytes.
	BlockSize = 4096
	// Magic identifies a shadowfs-format superblock.
	Magic = 0x5AD0F515
	// Version is the current format version.
	Version = 1
	// InodeSize is the on-disk size of one inode record.
	InodeSize = 128
	// InodesPerBlock is how many inode records fit in one block.
	InodesPerBlock = BlockSize / InodeSize
	// DirentSize is the fixed size of one directory entry.
	DirentSize = 64
	// DirentsPerBlock is how many directory entries fit in one block.
	DirentsPerBlock = BlockSize / DirentSize
	// MaxNameLen is the longest file name a directory entry can store.
	MaxNameLen = 56
	// NumDirect is the number of direct block pointers per inode.
	NumDirect = 12
	// PtrsPerBlock is the number of u32 block pointers in an indirect block.
	PtrsPerBlock = BlockSize / 4
	// RootIno is the inode number of the root directory. Inode 0 is reserved
	// as the nil pointer.
	RootIno = 1
)

// MaxFileBlocks is the largest number of data blocks a single inode can
// address: direct + single-indirect + double-indirect.
const MaxFileBlocks = NumDirect + PtrsPerBlock + PtrsPerBlock*PtrsPerBlock

// MaxFileSize is the largest file size in bytes an inode can represent.
const MaxFileSize = int64(MaxFileBlocks) * BlockSize

// File type values stored in Inode.Mode's type bits.
const (
	TypeFree = 0 // unallocated inode
	TypeFile = 1
	TypeDir  = 2
	TypeSym  = 3
)

// Mode encoding: type in bits 12-15, permissions in bits 0-11.
const (
	modeTypeShift = 12
	ModePermMask  = 0o7777
)

// MkMode packs a file type and permission bits into a Mode value.
func MkMode(typ uint16, perm uint16) uint16 {
	return typ<<modeTypeShift | perm&ModePermMask
}

// ModeType extracts the file type from a Mode value.
func ModeType(mode uint16) uint16 { return mode >> modeTypeShift }

// ModePerm extracts the permission bits from a Mode value.
func ModePerm(mode uint16) uint16 { return mode & ModePermMask }

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes the CRC32C of b, the integrity function used across the
// format.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// ChecksumUpdate continues a CRC32C over more bytes:
// ChecksumUpdate(ChecksumUpdate(0, a), b) == Checksum(append(a, b...)).
// The journal's commit and replay paths use it to fold payload blocks into
// a running checksum without concatenating them.
func ChecksumUpdate(acc uint32, b []byte) uint32 { return crc32.Update(acc, crcTable, b) }

// Superblock is the root of the on-disk format, stored in block 0.
type Superblock struct {
	Magic            uint32
	Version          uint32
	BlockSizeField   uint32 // must equal BlockSize; named to avoid colliding with the constant
	NumBlocks        uint32 // total blocks in the image
	NumInodes        uint32 // total inode records
	InodeBitmapStart uint32
	InodeBitmapLen   uint32
	BlockBitmapStart uint32
	BlockBitmapLen   uint32
	InodeTableStart  uint32
	InodeTableLen    uint32
	JournalStart     uint32
	JournalLen       uint32
	DataStart        uint32
	RootIno          uint32
	Clean            uint32 // 1 if cleanly unmounted
	Generation       uint64 // bumped on each mount; detects stale cached superblocks
	LastClock        uint64 // logical clock at the last durable point, restored on mount
}

const superblockPayload = 4 * 16 // 16 u32 fields... laid out explicitly in encode

// EncodeSuperblock serializes sb into a full block with a trailing checksum.
func EncodeSuperblock(sb *Superblock) []byte {
	b := make([]byte, BlockSize)
	le := binary.LittleEndian
	le.PutUint32(b[0:], sb.Magic)
	le.PutUint32(b[4:], sb.Version)
	le.PutUint32(b[8:], sb.BlockSizeField)
	le.PutUint32(b[12:], sb.NumBlocks)
	le.PutUint32(b[16:], sb.NumInodes)
	le.PutUint32(b[20:], sb.InodeBitmapStart)
	le.PutUint32(b[24:], sb.InodeBitmapLen)
	le.PutUint32(b[28:], sb.BlockBitmapStart)
	le.PutUint32(b[32:], sb.BlockBitmapLen)
	le.PutUint32(b[36:], sb.InodeTableStart)
	le.PutUint32(b[40:], sb.InodeTableLen)
	le.PutUint32(b[44:], sb.JournalStart)
	le.PutUint32(b[48:], sb.JournalLen)
	le.PutUint32(b[52:], sb.DataStart)
	le.PutUint32(b[56:], sb.RootIno)
	le.PutUint32(b[60:], sb.Clean)
	le.PutUint64(b[64:], sb.Generation)
	le.PutUint64(b[72:], sb.LastClock)
	le.PutUint32(b[BlockSize-4:], Checksum(b[:BlockSize-4]))
	return b
}

// DecodeSuperblock parses and validates a superblock from a raw block.
// It returns fserr.ErrCorrupt (wrapped with a diagnosis) on any structural
// problem, which is the shadow's cue to reject the image.
func DecodeSuperblock(b []byte) (*Superblock, error) {
	if len(b) != BlockSize {
		return nil, fmt.Errorf("superblock: got %d bytes, want %d: %w", len(b), BlockSize, fserr.ErrCorrupt)
	}
	le := binary.LittleEndian
	if got, want := le.Uint32(b[BlockSize-4:]), Checksum(b[:BlockSize-4]); got != want {
		return nil, fmt.Errorf("superblock: checksum %#x, want %#x: %w", got, want, fserr.ErrCorrupt)
	}
	sb := &Superblock{
		Magic:            le.Uint32(b[0:]),
		Version:          le.Uint32(b[4:]),
		BlockSizeField:   le.Uint32(b[8:]),
		NumBlocks:        le.Uint32(b[12:]),
		NumInodes:        le.Uint32(b[16:]),
		InodeBitmapStart: le.Uint32(b[20:]),
		InodeBitmapLen:   le.Uint32(b[24:]),
		BlockBitmapStart: le.Uint32(b[28:]),
		BlockBitmapLen:   le.Uint32(b[32:]),
		InodeTableStart:  le.Uint32(b[36:]),
		InodeTableLen:    le.Uint32(b[40:]),
		JournalStart:     le.Uint32(b[44:]),
		JournalLen:       le.Uint32(b[48:]),
		DataStart:        le.Uint32(b[52:]),
		RootIno:          le.Uint32(b[56:]),
		Clean:            le.Uint32(b[60:]),
		Generation:       le.Uint64(b[64:]),
		LastClock:        le.Uint64(b[72:]),
	}
	if err := sb.Validate(); err != nil {
		return nil, err
	}
	return sb, nil
}

// Validate checks the superblock's internal consistency: magic, version,
// region ordering, and bounds. This is the first line of defense against
// crafted images.
func (sb *Superblock) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("superblock: "+format+": %w", append(args, fserr.ErrCorrupt)...)
	}
	if sb.Magic != Magic {
		return bad("magic %#x, want %#x", sb.Magic, uint32(Magic))
	}
	if sb.Version != Version {
		return bad("version %d, want %d", sb.Version, Version)
	}
	if sb.BlockSizeField != BlockSize {
		return bad("block size %d, want %d", sb.BlockSizeField, BlockSize)
	}
	if sb.NumBlocks < 8 {
		return bad("image too small: %d blocks", sb.NumBlocks)
	}
	if sb.NumInodes == 0 || sb.NumInodes > sb.NumBlocks*InodesPerBlock {
		return bad("implausible inode count %d for %d blocks", sb.NumInodes, sb.NumBlocks)
	}
	// Regions must appear in order, be non-overlapping, and sized for their
	// contents.
	type region struct {
		name       string
		start, len uint32
	}
	regions := []region{
		{"inode bitmap", sb.InodeBitmapStart, sb.InodeBitmapLen},
		{"block bitmap", sb.BlockBitmapStart, sb.BlockBitmapLen},
		{"inode table", sb.InodeTableStart, sb.InodeTableLen},
		{"journal", sb.JournalStart, sb.JournalLen},
	}
	prevEnd := uint32(1) // block 0 is the superblock
	for _, r := range regions {
		if r.start < prevEnd {
			return bad("%s starts at %d, overlapping previous region ending at %d", r.name, r.start, prevEnd)
		}
		if r.len == 0 {
			return bad("%s has zero length", r.name)
		}
		end := uint64(r.start) + uint64(r.len)
		if end > uint64(sb.NumBlocks) {
			return bad("%s [%d,%d) exceeds image of %d blocks", r.name, r.start, end, sb.NumBlocks)
		}
		prevEnd = uint32(end)
	}
	if sb.DataStart < prevEnd || sb.DataStart >= sb.NumBlocks {
		return bad("data region start %d out of range [%d,%d)", sb.DataStart, prevEnd, sb.NumBlocks)
	}
	if need := (sb.NumInodes + InodesPerBlock - 1) / InodesPerBlock; sb.InodeTableLen < need {
		return bad("inode table %d blocks, need %d for %d inodes", sb.InodeTableLen, need, sb.NumInodes)
	}
	if need := bitmapBlocksFor(sb.NumInodes); sb.InodeBitmapLen < need {
		return bad("inode bitmap %d blocks, need %d", sb.InodeBitmapLen, need)
	}
	if need := bitmapBlocksFor(sb.NumBlocks); sb.BlockBitmapLen < need {
		return bad("block bitmap %d blocks, need %d", sb.BlockBitmapLen, need)
	}
	if sb.JournalLen < 4 {
		return bad("journal too small: %d blocks", sb.JournalLen)
	}
	if sb.RootIno == 0 || sb.RootIno >= sb.NumInodes {
		return bad("root inode %d out of range [1,%d)", sb.RootIno, sb.NumInodes)
	}
	return nil
}

// DataBlocks returns the number of blocks in the data region, excluding the
// backup-superblock block reserved at the end of the image.
func (sb *Superblock) DataBlocks() uint32 { return sb.NumBlocks - sb.DataStart - 1 }

// BackupBlk returns the block number of the backup superblock: always the
// last block of the image, so it is locatable from the device size alone
// when the primary superblock is unreadable.
func (sb *Superblock) BackupBlk() uint32 { return sb.NumBlocks - 1 }

func bitmapBlocksFor(n uint32) uint32 {
	bitsPerBlock := uint32(BlockSize * 8)
	return (n + bitsPerBlock - 1) / bitsPerBlock
}

// BitmapBlocksFor returns how many bitmap blocks are needed to track n items.
func BitmapBlocksFor(n uint32) uint32 { return bitmapBlocksFor(n) }

// Inode is the in-memory form of one on-disk inode record.
type Inode struct {
	Mode       uint16 // type and permissions; see MkMode
	Nlink      uint16
	UID        uint32
	GID        uint32
	Size       int64
	Atime      uint64
	Mtime      uint64
	Ctime      uint64
	Direct     [NumDirect]uint32
	Indirect   uint32 // single-indirect block pointer
	DblIndir   uint32 // double-indirect block pointer
	Generation uint32 // bumped on each reuse of the inode number
	Flags      uint32
}

// Type returns the inode's file type.
func (ino *Inode) Type() uint16 { return ModeType(ino.Mode) }

// IsDir reports whether the inode is a directory.
func (ino *Inode) IsDir() bool { return ino.Type() == TypeDir }

// IsFile reports whether the inode is a regular file.
func (ino *Inode) IsFile() bool { return ino.Type() == TypeFile }

// IsFree reports whether the inode record is unallocated.
func (ino *Inode) IsFree() bool { return ino.Type() == TypeFree }

// EncodeInode serializes ino into a 128-byte record with trailing checksum.
func EncodeInode(ino *Inode) []byte {
	b := make([]byte, InodeSize)
	PutInode(b, ino)
	return b
}

// PutInode serializes ino into b, which must be at least InodeSize bytes.
func PutInode(b []byte, ino *Inode) {
	le := binary.LittleEndian
	le.PutUint16(b[0:], ino.Mode)
	le.PutUint16(b[2:], ino.Nlink)
	le.PutUint32(b[4:], ino.UID)
	le.PutUint32(b[8:], ino.GID)
	le.PutUint64(b[12:], uint64(ino.Size))
	le.PutUint64(b[20:], ino.Atime)
	le.PutUint64(b[28:], ino.Mtime)
	le.PutUint64(b[36:], ino.Ctime)
	off := 44
	for i := 0; i < NumDirect; i++ {
		le.PutUint32(b[off:], ino.Direct[i])
		off += 4
	}
	le.PutUint32(b[off:], ino.Indirect)
	le.PutUint32(b[off+4:], ino.DblIndir)
	le.PutUint32(b[off+8:], ino.Generation)
	le.PutUint32(b[off+12:], ino.Flags)
	// off+16 == 108; bytes [108,124) are reserved zero padding.
	for i := off + 16; i < InodeSize-4; i++ {
		b[i] = 0
	}
	le.PutUint32(b[InodeSize-4:], Checksum(b[:InodeSize-4]))
}

// DecodeInode parses and validates one inode record into a new Inode (see
// Decode).
func DecodeInode(b []byte) (*Inode, error) {
	ino := new(Inode)
	if err := ino.Decode(b); err != nil {
		return nil, err
	}
	return ino, nil
}

// Decode parses and validates one inode record into ino, so a caller that
// does not keep the record can decode into a stack value. The checksum,
// type and size are always verified; geometry validation (pointer ranges)
// is the caller's job because it needs the superblock. On error ino may
// hold a partial decode.
func (ino *Inode) Decode(b []byte) error {
	if len(b) < InodeSize {
		return fmt.Errorf("inode: got %d bytes, want %d: %w", len(b), InodeSize, fserr.ErrCorrupt)
	}
	le := binary.LittleEndian
	if got, want := le.Uint32(b[InodeSize-4:]), Checksum(b[:InodeSize-4]); got != want {
		return fmt.Errorf("inode: checksum %#x, want %#x: %w", got, want, fserr.ErrCorrupt)
	}
	*ino = Inode{
		Mode:  le.Uint16(b[0:]),
		Nlink: le.Uint16(b[2:]),
		UID:   le.Uint32(b[4:]),
		GID:   le.Uint32(b[8:]),
		Size:  int64(le.Uint64(b[12:])),
		Atime: le.Uint64(b[20:]),
		Mtime: le.Uint64(b[28:]),
		Ctime: le.Uint64(b[36:]),
	}
	off := 44
	for i := 0; i < NumDirect; i++ {
		ino.Direct[i] = le.Uint32(b[off:])
		off += 4
	}
	ino.Indirect = le.Uint32(b[off:])
	ino.DblIndir = le.Uint32(b[off+4:])
	ino.Generation = le.Uint32(b[off+8:])
	ino.Flags = le.Uint32(b[off+12:])
	if t := ino.Type(); t > TypeSym {
		return fmt.Errorf("inode: unknown type %d: %w", t, fserr.ErrCorrupt)
	}
	if ino.Size < 0 || ino.Size > MaxFileSize {
		return fmt.Errorf("inode: size %d out of range: %w", ino.Size, fserr.ErrCorrupt)
	}
	return nil
}

// ValidatePointers checks that every block pointer in ino lies in the data
// region described by sb (or is the nil pointer 0). Indirect blocks' contents
// are validated separately when read. Extent inodes validate their inline
// runs and chain head instead of the pointer tree.
func (ino *Inode) ValidatePointers(sb *Superblock) error {
	if ino.IsExtents() {
		return ino.validateExtentPointers(sb)
	}
	// The label is built only for a pointer that fails: this runs for every
	// bmap inode on every persist and every shadow inode read.
	bad := func(p uint32) bool { return p != 0 && (p < sb.DataStart || p >= sb.NumBlocks) }
	fail := func(what string, p uint32) error {
		return fmt.Errorf("inode: %s pointer %d outside data region [%d,%d): %w",
			what, p, sb.DataStart, sb.NumBlocks, fserr.ErrCorrupt)
	}
	for i, p := range ino.Direct {
		if bad(p) {
			return fail(fmt.Sprintf("direct[%d]", i), p)
		}
	}
	if bad(ino.Indirect) {
		return fail("indirect", ino.Indirect)
	}
	if bad(ino.DblIndir) {
		return fail("double-indirect", ino.DblIndir)
	}
	return nil
}

// Dirent is one fixed-size directory entry.
type Dirent struct {
	Ino  uint32
	Name string
}

// EncodeDirent serializes d into b, which must be at least DirentSize bytes.
// It panics if the name exceeds MaxNameLen; callers validate names before
// reaching the encoder.
func EncodeDirent(b []byte, d Dirent) {
	if len(d.Name) > MaxNameLen {
		panic(fmt.Sprintf("disklayout: dirent name %q exceeds %d bytes", d.Name, MaxNameLen))
	}
	le := binary.LittleEndian
	le.PutUint32(b[0:], d.Ino)
	le.PutUint16(b[4:], uint16(len(d.Name)))
	copy(b[8:8+MaxNameLen], d.Name)
	for i := 8 + len(d.Name); i < DirentSize; i++ {
		b[i] = 0
	}
}

// DecodeDirent parses one directory entry from b. An entry with Ino==0 is a
// free slot and decodes to a zero Dirent.
func DecodeDirent(b []byte) (Dirent, error) {
	if len(b) < DirentSize {
		return Dirent{}, fmt.Errorf("dirent: got %d bytes, want %d: %w", len(b), DirentSize, fserr.ErrCorrupt)
	}
	le := binary.LittleEndian
	ino := le.Uint32(b[0:])
	if ino == 0 {
		return Dirent{}, nil
	}
	nameLen := le.Uint16(b[4:])
	if nameLen == 0 || nameLen > MaxNameLen {
		return Dirent{}, fmt.Errorf("dirent: name length %d out of range [1,%d]: %w", nameLen, MaxNameLen, fserr.ErrCorrupt)
	}
	name := b[8 : 8+nameLen]
	for _, c := range name {
		if c == 0 || c == '/' {
			return Dirent{}, fmt.Errorf("dirent: name contains byte %#x: %w", c, fserr.ErrCorrupt)
		}
	}
	return Dirent{Ino: ino, Name: string(name)}, nil
}

// ValidName reports whether name is storable as a directory entry component.
func ValidName(name string) error {
	if name == "" || name == "." || name == ".." {
		return fserr.ErrInvalid
	}
	if len(name) > MaxNameLen {
		return fserr.ErrNameTooLong
	}
	for i := 0; i < len(name); i++ {
		if name[i] == 0 || name[i] == '/' {
			return fserr.ErrInvalid
		}
	}
	return nil
}

// InodeLoc returns the block number and byte offset of inode number ino in
// the inode table.
func (sb *Superblock) InodeLoc(ino uint32) (blk uint32, off int) {
	blk = sb.InodeTableStart + ino/InodesPerBlock
	off = int(ino%InodesPerBlock) * InodeSize
	return blk, off
}

// ForEachAllocatedInode calls fn, in ascending inode order, with the decoded
// record of every inode the inode bitmap marks allocated. It reads each
// bitmap block once and only the table blocks that hold an allocated inode,
// so its cost follows the image's contents, not the table's size. Records
// that fail to decode are skipped: whoever touches them reports the
// corruption with a precise error.
func (sb *Superblock) ForEachAllocatedInode(read func(blk uint32) ([]byte, error), fn func(ino uint32, rec *Inode)) error {
	var tbl []byte
	var tblBlk uint32
	for base := uint32(0); base < sb.NumInodes; base += BitsPerBlock {
		bm, err := read(sb.InodeBitmapStart + base/BitsPerBlock)
		if err != nil {
			return err
		}
		limit := min(sb.NumInodes-base, BitsPerBlock)
		for bit, ok := NextSet(bm, 0, limit); ok; bit, ok = NextSet(bm, bit+1, limit) {
			blk, off := sb.InodeLoc(base + bit)
			if blk != tblBlk {
				if tbl, err = read(blk); err != nil {
					return err
				}
				tblBlk = blk
			}
			if rec, err := DecodeInode(tbl[off : off+InodeSize]); err == nil {
				fn(base+bit, rec)
			}
		}
	}
	return nil
}

// Geometry computes a consistent superblock for an image of totalBlocks
// blocks with the requested inode count and journal length, used by mkfs.
func Geometry(totalBlocks, numInodes, journalBlocks uint32) (*Superblock, error) {
	if totalBlocks < 16 {
		return nil, fmt.Errorf("disklayout: image of %d blocks is too small: %w", totalBlocks, fserr.ErrInvalid)
	}
	if numInodes == 0 {
		numInodes = totalBlocks / 4
		if numInodes < 64 {
			numInodes = 64
		}
	}
	if journalBlocks < 4 {
		journalBlocks = 64
	}
	sb := &Superblock{
		Magic:          Magic,
		Version:        Version,
		BlockSizeField: BlockSize,
		NumBlocks:      totalBlocks,
		NumInodes:      numInodes,
		RootIno:        RootIno,
		Clean:          1,
	}
	next := uint32(1)
	sb.InodeBitmapStart = next
	sb.InodeBitmapLen = bitmapBlocksFor(numInodes)
	next += sb.InodeBitmapLen
	sb.BlockBitmapStart = next
	sb.BlockBitmapLen = bitmapBlocksFor(totalBlocks)
	next += sb.BlockBitmapLen
	sb.InodeTableStart = next
	sb.InodeTableLen = (numInodes + InodesPerBlock - 1) / InodesPerBlock
	next += sb.InodeTableLen
	sb.JournalStart = next
	sb.JournalLen = journalBlocks
	next += journalBlocks
	sb.DataStart = next
	// The last block is reserved for the backup superblock, so the data
	// region needs at least one block before it.
	if sb.DataStart >= totalBlocks-1 {
		return nil, fmt.Errorf("disklayout: metadata (%d blocks) leaves no data region in %d-block image: %w",
			sb.DataStart, totalBlocks, fserr.ErrInvalid)
	}
	if err := sb.Validate(); err != nil {
		return nil, err
	}
	return sb, nil
}
