package disklayout

import (
	"encoding/binary"
	"math/bits"
)

// Bitmap operations over raw bitmap blocks. Both filesystems and fsck share
// these so a bit means the same thing everywhere: bit i of the inode bitmap
// covers inode i; bit i of the block bitmap covers block i (absolute block
// numbers, so metadata blocks are permanently marked allocated by mkfs).

// BitsPerBlock is the number of allocation bits stored in one bitmap block.
const BitsPerBlock = BlockSize * 8

// TestBit reports whether bit i is set in the concatenated bitmap bm.
// Out-of-range bits read as set, so corrupted callers can never treat
// untracked resources as free.
func TestBit(bm []byte, i uint32) bool {
	byteIdx := int(i / 8)
	if byteIdx >= len(bm) {
		return true
	}
	return bm[byteIdx]&(1<<(i%8)) != 0
}

// SetBit sets bit i in bm. Out-of-range sets are ignored.
func SetBit(bm []byte, i uint32) {
	byteIdx := int(i / 8)
	if byteIdx >= len(bm) {
		return
	}
	bm[byteIdx] |= 1 << (i % 8)
}

// ClearBit clears bit i in bm. Out-of-range clears are ignored.
func ClearBit(bm []byte, i uint32) {
	byteIdx := int(i / 8)
	if byteIdx >= len(bm) {
		return
	}
	bm[byteIdx] &^= 1 << (i % 8)
}

// scanBit returns the lowest bit in [lo, hi) of bm whose value is set,
// skipping whole bytes that hold none. Bits past the end of bm are not
// visited.
func scanBit(bm []byte, lo, hi uint32, set bool) (uint32, bool) {
	if n := uint32(len(bm)) * 8; hi > n {
		hi = n
	}
	var flip byte
	if !set {
		flip = 0xff
	}
	for i := lo; i < hi; i = (i/8 + 1) * 8 {
		if b := (bm[i/8] ^ flip) >> (i % 8); b != 0 {
			if i += uint32(bits.TrailingZeros8(b)); i < hi {
				return i, true
			}
			break
		}
	}
	return 0, false
}

// FirstClear returns the lowest clear bit in [lo, hi) of bm; false when
// every bit of the range is set. Like TestBit, bits past the end of bm count
// as set.
func FirstClear(bm []byte, lo, hi uint32) (uint32, bool) { return scanBit(bm, lo, hi, false) }

// NextSet returns the lowest set bit in [lo, hi) of bm that bm actually
// stores; false when there is none. Iterating it visits exactly the
// resources a bitmap block marks allocated.
func NextSet(bm []byte, lo, hi uint32) (uint32, bool) { return scanBit(bm, lo, hi, true) }

// FindFree returns the index of the first clear bit in bm at or after the
// hint, scanning at most limit bits, wrapping to 0 if nothing is free after
// the hint. The second result is false when everything is allocated.
func FindFree(bm []byte, hint, limit uint32) (uint32, bool) {
	if hint >= limit {
		hint = 0
	}
	if i, ok := FirstClear(bm, hint, limit); ok {
		return i, true
	}
	return FirstClear(bm, 0, hint)
}

// FindFreeRun returns the start of the longest run of clear bits it can find
// of length at most want, preferring the first run at or after hint that
// satisfies want in full. It scans at most limit bits, wrapping once. The
// returned length is min(run length, want); ok is false when no bit is free.
// Delayed allocation uses this to place a whole dirty range contiguously,
// falling back to whatever shorter runs exist under fragmentation.
func FindFreeRun(bm []byte, hint, limit, want uint32) (start, n uint32, ok bool) {
	if limit == 0 || want == 0 {
		return 0, 0, false
	}
	if hint >= limit {
		hint = 0
	}
	var bestStart, bestLen uint32
	scan := func(from, to uint32) bool {
		i := from
		for i < to {
			if TestBit(bm, i) {
				i++
				continue
			}
			runStart := i
			for i < to && i-runStart < want && !TestBit(bm, i) {
				i++
			}
			if runLen := i - runStart; runLen > bestLen {
				bestStart, bestLen = runStart, runLen
				if bestLen >= want {
					return true
				}
			}
		}
		return false
	}
	if !scan(hint, limit) {
		scan(0, hint)
	}
	if bestLen == 0 {
		return 0, 0, false
	}
	return bestStart, bestLen, true
}

// CountSet returns the number of set bits in [lo, hi) of bm, a 64-bit word
// at a time. Bits past the end of bm are not counted.
func CountSet(bm []byte, lo, hi uint32) uint32 {
	if n := uint32(len(bm)) * 8; hi > n {
		hi = n
	}
	var n uint32
	for i := lo; i < hi; {
		if i%64 == 0 && i+64 <= hi {
			n += uint32(bits.OnesCount64(binary.LittleEndian.Uint64(bm[i/8:])))
			i += 64
			continue
		}
		n += uint32(bm[i/8] >> (i % 8) & 1)
		i++
	}
	return n
}

// ScanBitmap walks bits [lo, hi) of the on-disk bitmap whose first block is
// device block start, one bitmap block at a time: each covering block is
// read once and handed to fn with the number of its bit 0 and the sub-range
// [from, to) of its bits that lie inside [lo, hi). fn must not write to bm
// and returns false to stop. A question about a whole bitmap (how many
// blocks are in use, which is the lowest free one) asked through here costs
// one read per bitmap block, never one per bit, and keeps no state.
func ScanBitmap(read func(blk uint32) ([]byte, error), start, lo, hi uint32,
	fn func(bm []byte, base, from, to uint32) bool) error {
	for base := lo - lo%BitsPerBlock; base < hi; base += BitsPerBlock {
		bm, err := read(start + base/BitsPerBlock)
		if err != nil {
			return err
		}
		if !fn(bm, base, max(lo, base)-base, min(hi-base, BitsPerBlock)) {
			return nil
		}
	}
	return nil
}
