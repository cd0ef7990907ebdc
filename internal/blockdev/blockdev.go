// Package blockdev provides the block-device substrate under both
// filesystems.
//
// Both filesystems call a Device on their own goroutine. The base batches
// its writes into vectored runs at sync time; the shadow reads through its
// own handle, which bypasses the base's caches (§4.1 suggests a user-space
// NVMe driver; here the separate handle is the analogous bypass). The
// package also hosts the hardware-fault injection hooks used to exercise
// the shadow's runtime checks: transient read corruption, torn writes, and
// IO errors.
package blockdev

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disklayout"
	"repro/internal/fserr"
)

// Device is the synchronous block interface. Offsets are block numbers;
// ReadBlock and WriteBlock move exactly one block, ReadVec and WriteVec move
// contiguous multi-block runs in one device-level call each (see Run).
//
// Ownership: WriteBlock and WriteVec never keep or modify the caller's
// buffers. The device copies the bytes (Mem), hands them to the kernel
// (File), forwards the call (Instrumented and other pass-through wrappers)
// or refuses it (ReadOnly, Overlay), so on return, failed or not, the
// caller may reuse every buffer it passed. On the read side, ReadBlock
// returns a fresh buffer nothing else holds, and a successful ReadVec
// overwrites every byte of every buffer it was passed, whatever the buffer
// held before: unwritten blocks read as zeros, and an injected corruption
// flips a bit of the bytes read, never leaves old bytes in place. The
// base's block pool relies on both sides: it recycles written copies, and
// reads into recycled blocks that still hold another block's bytes.
type Device interface {
	// ReadBlock reads block blk into a fresh buffer of BlockSize bytes that
	// the caller owns.
	ReadBlock(blk uint32) ([]byte, error)
	// WriteBlock writes one block. The buffer must be BlockSize bytes; the
	// device does not keep it.
	WriteBlock(blk uint32, data []byte) error
	VecReader
	VecWriter
	// NumBlocks returns the device capacity in blocks.
	NumBlocks() uint32
	// Flush makes all completed writes durable.
	Flush() error
}

// Stats counts device traffic, split by path so experiments can show the
// base and shadow exercising different IO machinery.
type Stats struct {
	Reads       atomic.Int64
	Writes      atomic.Int64
	Flushes     atomic.Int64
	ReadErrors  atomic.Int64
	WriteErrors atomic.Int64
	// ReadCalls and WriteCalls count device-level IO calls: a vectored run
	// of any length is one call, a per-block transfer is one call per block.
	// Reads/Writes keep counting blocks, so calls vs blocks is the
	// coalescing ratio.
	ReadCalls  atomic.Int64
	WriteCalls atomic.Int64
}

// Snapshot returns a plain-value copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Reads:       s.Reads.Load(),
		Writes:      s.Writes.Load(),
		Flushes:     s.Flushes.Load(),
		ReadErrors:  s.ReadErrors.Load(),
		WriteErrors: s.WriteErrors.Load(),
		ReadCalls:   s.ReadCalls.Load(),
		WriteCalls:  s.WriteCalls.Load(),
	}
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	Reads, Writes, Flushes, ReadErrors, WriteErrors int64
	ReadCalls, WriteCalls                           int64
}

// FaultPlan describes device-level fault injection. The zero value injects
// nothing. Faults model the transient hardware errors the paper's runtime
// checks defend against (silent corruption, torn writes, EIO).
//
// A plan is safe to share across devices and goroutines: the pseudo-random
// stream and the block maps are guarded by the plan's mutex. Sharing is
// still usually wrong for campaigns that need per-device reproducibility —
// concurrent devices interleave draws from the one stream in scheduling
// order, so which device sees which fault is nondeterministic. Use Fork to
// give each device an independent plan with a derived seed instead.
type FaultPlan struct {
	mu sync.Mutex
	// rng is the deterministic pseudo-random fault stream, guarded by mu
	// (lazily seeded from seed on first use so zero-value plans work).
	rng *rand.Rand
	// seed is the value the stream was (or will be) seeded with; Fork derives
	// child seeds from it.
	seed int64
	// CorruptReadProb is the probability that a read returns a buffer with
	// one flipped bit (silent data corruption).
	CorruptReadProb float64
	// ReadErrProb is the probability a read fails with ErrIO.
	ReadErrProb float64
	// WriteErrProb is the probability a write fails with ErrIO.
	WriteErrProb float64
	// TornWriteProb is the probability a write persists only the first half
	// of the block (a torn sector), while reporting success.
	TornWriteProb float64
	// CorruptBlocks pinpoints blocks whose reads are always corrupted, for
	// deterministic crafted-fault tests.
	CorruptBlocks map[uint32]bool
	// ReadErrBlocks pinpoints blocks whose reads always fail with ErrIO,
	// for deterministic bad-sector tests (e.g. a single unreadable bitmap
	// block) where probabilistic injection would make findings flaky.
	ReadErrBlocks map[uint32]bool
	// ReadLatency and WriteLatency add a fixed service time per run (a
	// one-block transfer is a run of one), simulating a real device.
	ReadLatency  time.Duration
	WriteLatency time.Duration
}

// NewFaultPlan returns a fault plan with the given deterministic seed.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// splitmix64 is the SplitMix64 finalizer, used to derive well-separated child
// seeds from (seed, salt) pairs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Fork returns an independent copy of the plan whose pseudo-random stream is
// seeded from (parent seed, salt). Equal (plan, salt) pairs produce equal
// streams, so a campaign that forks one template plan per device gets
// per-device fault sequences that are reproducible regardless of how many
// devices run in parallel or how their IO interleaves. The probability and
// latency knobs are copied, and the block maps are deep-copied so later
// mutation of the parent never races a child in use.
func (p *FaultPlan) Fork(salt int64) *FaultPlan {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	childSeed := int64(splitmix64(uint64(p.seed) ^ splitmix64(uint64(salt))))
	cp := &FaultPlan{
		rng:             rand.New(rand.NewSource(childSeed)),
		seed:            childSeed,
		CorruptReadProb: p.CorruptReadProb,
		ReadErrProb:     p.ReadErrProb,
		WriteErrProb:    p.WriteErrProb,
		TornWriteProb:   p.TornWriteProb,
		ReadLatency:     p.ReadLatency,
		WriteLatency:    p.WriteLatency,
	}
	if p.CorruptBlocks != nil {
		cp.CorruptBlocks = make(map[uint32]bool, len(p.CorruptBlocks))
		for b, v := range p.CorruptBlocks {
			cp.CorruptBlocks[b] = v
		}
	}
	if p.ReadErrBlocks != nil {
		cp.ReadErrBlocks = make(map[uint32]bool, len(p.ReadErrBlocks))
		for b, v := range p.ReadErrBlocks {
			cp.ReadErrBlocks[b] = v
		}
	}
	return cp
}

func (p *FaultPlan) roll(prob float64) bool {
	if p == nil || prob <= 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.seed))
	}
	return p.rng.Float64() < prob
}

func (p *FaultPlan) pick(n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.seed))
	}
	return p.rng.Intn(n)
}

// Mem is a memory-backed Device with fault injection, the primary substrate
// for experiments. It is safe for concurrent use.
type Mem struct {
	mu      sync.RWMutex
	blocks  [][]byte
	faults  *FaultPlan
	stats   Stats
	onWrite func(blk uint32)
}

// SetWriteHook installs a callback invoked after every successful write,
// outside the device lock. Crash-consistency harnesses use it to snapshot
// the device at every possible crash point.
func (d *Mem) SetWriteHook(f func(blk uint32)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onWrite = f
}

// NewMem creates a zero-filled in-memory device of n blocks.
func NewMem(n uint32) *Mem {
	return &Mem{blocks: make([][]byte, n)}
}

// SetFaults installs (or removes, with nil) the device's fault plan.
func (d *Mem) SetFaults(p *FaultPlan) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faults = p
}

// Stats returns the device's traffic counters.
func (d *Mem) Stats() *Stats { return &d.stats }

// NumBlocks returns the device capacity in blocks.
func (d *Mem) NumBlocks() uint32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return uint32(len(d.blocks))
}

// ReadBlock implements Device as a one-block run, so single blocks and runs
// share one fault surface.
func (d *Mem) ReadBlock(blk uint32) ([]byte, error) {
	buf := make([]byte, disklayout.BlockSize)
	if err := d.ReadVec([]Run{{Blk: blk, Bufs: [][]byte{buf}}}); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteBlock implements Device as a one-block run.
func (d *Mem) WriteBlock(blk uint32, data []byte) error {
	return d.WriteVec([]Run{{Blk: blk, Bufs: [][]byte{data}}})
}

// store overwrites block blk with data, or with only its first half when the
// write is torn (the rest keeps its previous contents). The block's buffer is
// reused: nothing outside Mem holds it, and a device write that allocated
// would put 4 KiB of fresh memory on every caller's hot path. Caller holds
// d.mu.
func (d *Mem) store(blk uint32, data []byte, torn bool) {
	buf := d.blocks[blk]
	if buf == nil {
		buf = make([]byte, disklayout.BlockSize)
		d.blocks[blk] = buf
	}
	if torn {
		data = data[:disklayout.BlockSize/2]
	}
	copy(buf, data)
}

// Flush implements Device. Memory devices are always durable.
func (d *Mem) Flush() error {
	d.stats.Flushes.Add(1)
	return nil
}

// Snapshot returns a deep copy of the device contents, used by crash-
// simulation tests to capture "the disk at the moment of the crash".
func (d *Mem) Snapshot() *Mem {
	d.mu.RLock()
	defer d.mu.RUnlock()
	cp := &Mem{blocks: make([][]byte, len(d.blocks))}
	for i, b := range d.blocks {
		if b != nil {
			nb := make([]byte, disklayout.BlockSize)
			copy(nb, b)
			cp.blocks[i] = nb
		}
	}
	return cp
}

// Snapshotter is implemented by devices that can produce a point-in-time
// frozen copy of their contents. The background scrubber requires it: a
// scrub pass checks a snapshot, never the live device, so it races with
// nothing and observes a single consistent image.
type Snapshotter interface {
	Device
	// SnapshotDevice returns a frozen, fault-free copy of the device
	// contents as of the call.
	SnapshotDevice() Device
}

// SnapshotDevice implements Snapshotter. The copy carries no fault plan and
// no write hook: it is an observation of the bits, not of the hardware.
func (d *Mem) SnapshotDevice() Device { return d.Snapshot() }

// CorruptBlock flips the byte at off in block blk in place, bypassing the
// write path. Tests use it to plant silent on-disk corruption.
func (d *Mem) CorruptBlock(blk uint32, off int, xor byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(blk) >= len(d.blocks) {
		return fserr.ErrInvalid
	}
	if d.blocks[blk] == nil {
		d.blocks[blk] = make([]byte, disklayout.BlockSize)
	}
	d.blocks[blk][off%disklayout.BlockSize] ^= xor
	return nil
}

// File is a file-backed Device so images created by cmd/mkfs can live on the
// host filesystem. It is safe for concurrent use.
type File struct {
	mu   sync.Mutex
	f    *os.File
	n    uint32
	stat Stats
}

// OpenFile opens (or creates, when create is true) a file-backed device of n
// blocks at path.
func OpenFile(path string, n uint32, create bool) (*File, error) {
	flags := os.O_RDWR
	if create {
		flags |= os.O_CREATE
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blockdev: open %s: %w", path, err)
	}
	if create {
		if err := f.Truncate(int64(n) * disklayout.BlockSize); err != nil {
			f.Close()
			return nil, fmt.Errorf("blockdev: truncate %s: %w", path, err)
		}
	} else {
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("blockdev: stat %s: %w", path, err)
		}
		n = uint32(fi.Size() / disklayout.BlockSize)
	}
	return &File{f: f, n: n}, nil
}

// NumBlocks returns the device capacity in blocks.
func (d *File) NumBlocks() uint32 { return d.n }

// Stats returns the device's traffic counters.
func (d *File) Stats() *Stats { return &d.stat }

// ReadBlock implements Device as a one-block run.
func (d *File) ReadBlock(blk uint32) ([]byte, error) {
	buf := make([]byte, disklayout.BlockSize)
	if err := d.ReadVec([]Run{{Blk: blk, Bufs: [][]byte{buf}}}); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteBlock implements Device as a one-block run.
func (d *File) WriteBlock(blk uint32, data []byte) error {
	return d.WriteVec([]Run{{Blk: blk, Bufs: [][]byte{data}}})
}

// Flush implements Device.
func (d *File) Flush() error {
	d.mu.Lock()
	err := d.f.Sync()
	d.mu.Unlock()
	if err != nil {
		return fmt.Errorf("blockdev: fsync: %v: %w", err, fserr.ErrIO)
	}
	d.stat.Flushes.Add(1)
	return nil
}

// Close releases the underlying file.
func (d *File) Close() error { return d.f.Close() }

// ReadOnly wraps a Device and rejects all mutation, enforcing the shadow's
// "never writes to the disk" property (§3.2). A write through this handle is
// a bug in the shadow itself and surfaces as ErrReadOnly, which the
// supervisor reports as a shadow fault.
type ReadOnly struct {
	dev Device
}

// NewReadOnly wraps dev in a write-rejecting handle.
func NewReadOnly(dev Device) *ReadOnly { return &ReadOnly{dev: dev} }

// ReadBlock implements Device.
func (r *ReadOnly) ReadBlock(blk uint32) ([]byte, error) { return r.dev.ReadBlock(blk) }

// WriteBlock implements Device and always fails.
func (r *ReadOnly) WriteBlock(blk uint32, data []byte) error {
	return fmt.Errorf("blockdev: shadow attempted write to block %d: %w", blk, fserr.ErrReadOnly)
}

// NumBlocks implements Device.
func (r *ReadOnly) NumBlocks() uint32 { return r.dev.NumBlocks() }

// Flush implements Device and always fails: flushing is meaningless without
// writes and indicates a shadow bug.
func (r *ReadOnly) Flush() error {
	return fmt.Errorf("blockdev: shadow attempted flush: %w", fserr.ErrReadOnly)
}

// Overlay is a read-only logical view of a device with a fixed set of block
// overrides layered on top. Reads of an overridden block return the override
// (copied, so callers can never alias the overlay's memory); everything else
// passes through. Writes and flushes are rejected.
//
// The recovery engine builds one from the journal's committed-transaction
// scan: raw device + committed overlay == the post-replay image, so a reader
// holding this view observes stable logical contents even while journal
// replay is physically rewriting the same home locations underneath it.
type Overlay struct {
	dev  Device
	over map[uint32][]byte
}

// NewOverlay wraps dev with the given block overrides. The map is retained,
// not copied; callers must not mutate it afterwards.
func NewOverlay(dev Device, over map[uint32][]byte) *Overlay {
	return &Overlay{dev: dev, over: over}
}

// ReadBlock implements Device.
func (o *Overlay) ReadBlock(blk uint32) ([]byte, error) {
	if b, ok := o.over[blk]; ok {
		cp := make([]byte, disklayout.BlockSize)
		copy(cp, b)
		return cp, nil
	}
	return o.dev.ReadBlock(blk)
}

// WriteBlock implements Device and always fails.
func (o *Overlay) WriteBlock(blk uint32, data []byte) error {
	return fmt.Errorf("blockdev: write to block %d through read-only overlay: %w", blk, fserr.ErrReadOnly)
}

// NumBlocks implements Device.
func (o *Overlay) NumBlocks() uint32 { return o.dev.NumBlocks() }

// Flush implements Device and always fails.
func (o *Overlay) Flush() error {
	return fmt.Errorf("blockdev: flush through read-only overlay: %w", fserr.ErrReadOnly)
}
