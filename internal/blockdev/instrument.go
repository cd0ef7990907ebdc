package blockdev

import "repro/internal/telemetry"

// Instrumented wraps a Device and counts/times every transfer under a named
// IO path. The supervisor wraps the shadow's device handle with path
// "shadow" so snapshots show the base's async queued traffic
// ("blockdev.queued.*") and the shadow's synchronous direct traffic
// ("blockdev.shadow.*") as the distinct IO machineries of Figure 2.
type Instrumented struct {
	dev                    Device
	reads, writes, flushes *telemetry.Counter
	hRead, hWrite, hFlush  *telemetry.Histogram
}

var _ Device = (*Instrumented)(nil)

// Instrument wraps dev with per-path telemetry. With a nil sink the device
// is returned unwrapped, so the disabled path costs nothing at all.
func Instrument(dev Device, s *telemetry.Sink, path string) Device {
	if s == nil {
		return dev
	}
	prefix := "blockdev." + path + "."
	return &Instrumented{
		dev:     dev,
		reads:   s.Counter(prefix + "reads"),
		writes:  s.Counter(prefix + "writes"),
		flushes: s.Counter(prefix + "flushes"),
		hRead:   s.Histogram(prefix + "read.latency"),
		hWrite:  s.Histogram(prefix + "write.latency"),
		hFlush:  s.Histogram(prefix + "flush.latency"),
	}
}

// ReadBlock implements Device.
func (d *Instrumented) ReadBlock(blk uint32) ([]byte, error) {
	t := telemetry.StartTimer(d.hRead)
	b, err := d.dev.ReadBlock(blk)
	t.Stop()
	d.reads.Inc()
	return b, err
}

// WriteBlock implements Device.
func (d *Instrumented) WriteBlock(blk uint32, data []byte) error {
	t := telemetry.StartTimer(d.hWrite)
	err := d.dev.WriteBlock(blk, data)
	t.Stop()
	d.writes.Inc()
	return err
}

// ReadVec implements VecReader: one timed call, counted in blocks.
func (d *Instrumented) ReadVec(runs []Run) error {
	t := telemetry.StartTimer(d.hRead)
	err := d.dev.ReadVec(runs)
	t.Stop()
	d.reads.Add(runBlocks(runs))
	return err
}

// WriteVec implements VecWriter: one timed call, counted in blocks.
func (d *Instrumented) WriteVec(runs []Run) error {
	t := telemetry.StartTimer(d.hWrite)
	err := d.dev.WriteVec(runs)
	t.Stop()
	d.writes.Add(runBlocks(runs))
	return err
}

// runBlocks counts the blocks the runs name.
func runBlocks(runs []Run) int64 {
	n := 0
	for _, r := range runs {
		n += len(r.Bufs)
	}
	return int64(n)
}

// NumBlocks implements Device.
func (d *Instrumented) NumBlocks() uint32 { return d.dev.NumBlocks() }

// Flush implements Device.
func (d *Instrumented) Flush() error {
	t := telemetry.StartTimer(d.hFlush)
	err := d.dev.Flush()
	t.Stop()
	d.flushes.Inc()
	return err
}
