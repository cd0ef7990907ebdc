package blockdev

// Vectored multi-run IO. A Run is one contiguous block range transferred in
// a single device-level call — the syscall-coalescing primitive under the
// extent data path: the base filesystem turns each allocated extent run into
// one Run, so a 4 MiB sequential write costs a handful of device calls
// instead of a thousand. Runs are part of Device itself, so every wrapper
// between the filesystem and the leaf decides what a run means to it: the
// read-only views reject written runs, the pass-through wrappers forward
// them, and a device with no native run path says so by calling
// ReadVecPerBlock/WriteVecPerBlock.
//
// Fault semantics are per block within a run: the deterministic block maps
// (ReadErrBlocks, CorruptBlocks) and the probabilistic error/corruption
// rolls fire for every block exactly as they would under per-block IO, so a
// fault campaign observes the same fault surface whichever path the
// filesystem takes. Only the fixed per-IO service latency is charged once
// per run — that is the physical effect vectoring exists to buy. A write
// error mid-run leaves the blocks before it persisted (a torn multi-block
// transfer), and Mem's write hook still fires once per block so crash-point
// enumeration keeps seeing every write.

import (
	"fmt"
	"time"

	"repro/internal/disklayout"
	"repro/internal/fserr"
)

// Run names a contiguous block range [Blk, Blk+len(Bufs)) with one
// BlockSize buffer per block. For reads the caller allocates the buffers
// (typically slices of one backing array) and the device fills them; for
// writes they are the payload.
type Run struct {
	Blk  uint32
	Bufs [][]byte
}

// VecReader reads multi-block runs, each in one device-level call. Buffers
// must be pre-allocated BlockSize slices; a successful ReadVec overwrites
// every byte of each, so they may hold anything before the call (see
// Device). A failed one may leave any of them partly filled.
type VecReader interface {
	ReadVec(runs []Run) error
}

// VecWriter writes multi-block runs, each in one device-level call. A device
// that fails mid-run may have persisted the blocks before the failure.
// Like WriteBlock, it keeps none of the run buffers (see Device).
type VecWriter interface {
	WriteVec(runs []Run) error
}

// ReadVecPerBlock reads every run from dev one ReadBlock at a time: the run
// path of a device that has no native one.
func ReadVecPerBlock(dev Device, runs []Run) error {
	for _, r := range runs {
		for i, buf := range r.Bufs {
			b, err := dev.ReadBlock(r.Blk + uint32(i))
			if err != nil {
				return err
			}
			copy(buf, b)
		}
	}
	return nil
}

// WriteVecPerBlock writes every run to dev one WriteBlock at a time: the run
// path of a device that has no native one.
func WriteVecPerBlock(dev Device, runs []Run) error {
	for _, r := range runs {
		for i, buf := range r.Bufs {
			if err := dev.WriteBlock(r.Blk+uint32(i), buf); err != nil {
				return err
			}
		}
	}
	return nil
}

func validateRun(r Run, numBlocks uint32) error {
	if len(r.Bufs) == 0 {
		return fmt.Errorf("blockdev: empty run at block %d: %w", r.Blk, fserr.ErrInvalid)
	}
	if end := uint64(r.Blk) + uint64(len(r.Bufs)); end > uint64(numBlocks) {
		return fmt.Errorf("blockdev: run [%d,%d) beyond device end %d: %w", r.Blk, end, numBlocks, fserr.ErrIO)
	}
	for _, b := range r.Bufs {
		if len(b) != disklayout.BlockSize {
			return fmt.Errorf("blockdev: run buffer of %d bytes, want %d: %w", len(b), disklayout.BlockSize, fserr.ErrInvalid)
		}
	}
	return nil
}

// ReadVec implements VecReader: one counted device call per run, per-block
// fault rolls, run-level service latency.
func (d *Mem) ReadVec(runs []Run) error {
	for _, r := range runs {
		d.mu.RLock()
		faults := d.faults
		n := uint32(len(d.blocks))
		d.mu.RUnlock()
		if err := validateRun(r, n); err != nil {
			d.stats.ReadErrors.Add(1)
			return err
		}
		d.stats.ReadCalls.Add(1)
		if faults != nil && faults.ReadLatency > 0 {
			time.Sleep(faults.ReadLatency)
		}
		d.mu.RLock()
		for i, buf := range r.Bufs {
			if src := d.blocks[r.Blk+uint32(i)]; src != nil {
				copy(buf, src)
			} else {
				for j := range buf {
					buf[j] = 0
				}
			}
		}
		d.mu.RUnlock()
		d.stats.Reads.Add(int64(len(r.Bufs)))
		if faults != nil {
			for i, buf := range r.Bufs {
				blk := r.Blk + uint32(i)
				faults.mu.Lock()
				badSector := faults.ReadErrBlocks[blk]
				faults.mu.Unlock()
				if badSector || faults.roll(faults.ReadErrProb) {
					d.stats.ReadErrors.Add(1)
					return fmt.Errorf("blockdev: injected read error on block %d: %w", blk, fserr.ErrIO)
				}
				corrupt := faults.roll(faults.CorruptReadProb)
				if !corrupt {
					faults.mu.Lock()
					corrupt = faults.CorruptBlocks[blk]
					faults.mu.Unlock()
				}
				if corrupt {
					bit := faults.pick(disklayout.BlockSize * 8)
					buf[bit/8] ^= 1 << (bit % 8)
				}
			}
		}
	}
	return nil
}

// WriteVec implements VecWriter: one counted device call per run, per-block
// fault rolls and write hooks, run-level service latency. An error mid-run
// persists the blocks before it.
func (d *Mem) WriteVec(runs []Run) error {
	for _, r := range runs {
		d.mu.RLock()
		faults := d.faults
		n := uint32(len(d.blocks))
		d.mu.RUnlock()
		if err := validateRun(r, n); err != nil {
			d.stats.WriteErrors.Add(1)
			return err
		}
		d.stats.WriteCalls.Add(1)
		if faults != nil && faults.WriteLatency > 0 {
			time.Sleep(faults.WriteLatency)
		}
		for i, data := range r.Bufs {
			blk := r.Blk + uint32(i)
			if faults != nil && faults.roll(faults.WriteErrProb) {
				d.stats.WriteErrors.Add(1)
				return fmt.Errorf("blockdev: injected write error on block %d: %w", blk, fserr.ErrIO)
			}
			torn := faults != nil && faults.roll(faults.TornWriteProb)
			d.mu.Lock()
			d.store(blk, data, torn)
			hook := d.onWrite
			d.mu.Unlock()
			d.stats.Writes.Add(1)
			if hook != nil {
				hook(blk)
			}
		}
	}
	return nil
}

// ReadVec implements VecReader with one pread-equivalent per run. A
// one-block run is read straight into its buffer.
func (d *File) ReadVec(runs []Run) error {
	for _, r := range runs {
		if err := validateRun(r, d.n); err != nil {
			d.stat.ReadErrors.Add(1)
			return err
		}
		flat := r.Bufs[0]
		if len(r.Bufs) > 1 {
			flat = make([]byte, len(r.Bufs)*disklayout.BlockSize)
		}
		d.mu.Lock()
		_, err := d.f.ReadAt(flat, int64(r.Blk)*disklayout.BlockSize)
		d.mu.Unlock()
		d.stat.ReadCalls.Add(1)
		if err != nil {
			d.stat.ReadErrors.Add(1)
			return fmt.Errorf("blockdev: read run [%d,+%d): %v: %w", r.Blk, len(r.Bufs), err, fserr.ErrIO)
		}
		if len(r.Bufs) > 1 {
			for i, buf := range r.Bufs {
				copy(buf, flat[i*disklayout.BlockSize:])
			}
		}
		d.stat.Reads.Add(int64(len(r.Bufs)))
	}
	return nil
}

// WriteVec implements VecWriter with one pwrite-equivalent per run. A
// one-block run is written straight from its buffer.
func (d *File) WriteVec(runs []Run) error {
	for _, r := range runs {
		if err := validateRun(r, d.n); err != nil {
			d.stat.WriteErrors.Add(1)
			return err
		}
		flat := r.Bufs[0]
		if len(r.Bufs) > 1 {
			flat = make([]byte, len(r.Bufs)*disklayout.BlockSize)
			for i, buf := range r.Bufs {
				copy(flat[i*disklayout.BlockSize:], buf)
			}
		}
		d.mu.Lock()
		_, err := d.f.WriteAt(flat, int64(r.Blk)*disklayout.BlockSize)
		d.mu.Unlock()
		d.stat.WriteCalls.Add(1)
		if err != nil {
			d.stat.WriteErrors.Add(1)
			return fmt.Errorf("blockdev: write run [%d,+%d): %v: %w", r.Blk, len(r.Bufs), err, fserr.ErrIO)
		}
		d.stat.Writes.Add(int64(len(r.Bufs)))
	}
	return nil
}

// ReadVec implements VecReader by delegating; the read-only wrapper adds no
// block-level behavior.
func (r *ReadOnly) ReadVec(runs []Run) error { return r.dev.ReadVec(runs) }

// WriteVec implements VecWriter and always fails, as WriteBlock does.
func (r *ReadOnly) WriteVec(runs []Run) error {
	return fmt.Errorf("blockdev: shadow attempted run write: %w", fserr.ErrReadOnly)
}

// ReadVec implements VecReader: contiguous sub-runs of non-overridden blocks
// delegate to the underlying device in single calls; overridden blocks are
// served from the overlay.
func (o *Overlay) ReadVec(runs []Run) error {
	for _, r := range runs {
		i := 0
		for i < len(r.Bufs) {
			blk := r.Blk + uint32(i)
			if b, ok := o.over[blk]; ok {
				copy(r.Bufs[i], b)
				i++
				continue
			}
			j := i + 1
			for j < len(r.Bufs) {
				if _, ok := o.over[r.Blk+uint32(j)]; ok {
					break
				}
				j++
			}
			if err := o.dev.ReadVec([]Run{{Blk: blk, Bufs: r.Bufs[i:j]}}); err != nil {
				return err
			}
			i = j
		}
	}
	return nil
}

// WriteVec implements VecWriter and always fails.
func (o *Overlay) WriteVec(runs []Run) error {
	return fmt.Errorf("blockdev: run write through read-only overlay: %w", fserr.ErrReadOnly)
}
