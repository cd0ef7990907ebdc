package main

import (
	"testing"
	"time"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/telemetry"
)

// runFixed executes a workload's set-up ops, one lap and the closing sync
// from a single client against fs, and returns what that asked of mem.
func runFixed(t *testing.T, w *workload, mem *blockdev.Mem, fs fsapi.FS) blockdev.StatsSnapshot {
	t.Helper()
	sb, _ := geometry(w)
	tr, err := generate(w, sb, 5, 0, testScale)
	if err != nil {
		t.Fatal(err)
	}
	c := &client{fs: fs, t: tr, owns: true}
	c.run(tr.pre, time.Time{}, false)
	c.run(tr.lap, time.Time{}, false)
	c.finish()
	if c.failed != 0 {
		t.Fatalf("%s: %d calls differ from the oracle: %s", w.name, c.failed, c.firstBad)
	}
	return mem.Stats().Snapshot()
}

// TestDecoratorKeepsDeviceCalls drives a fixed single-client trace with and
// without the span decorator between filesystem and device and requires the
// same number of read, write and flush calls (and blocks moved) either way.
// A decorator that hid one of Mem's optional interfaces would move IO onto
// the per-block path and fail here. The bare base is included because it is
// the path that uses vectored IO today; the hot mix because its working set
// fits the cache, which makes its read calls independent of timing too.
func TestDecoratorKeepsDeviceCalls(t *testing.T) {
	mounts := map[string]func(dev blockdev.Device) (fsapi.FS, func(), error){
		"core": func(dev blockdev.Device) (fsapi.FS, func(), error) {
			sup, err := core.Mount(dev, core.Config{Telemetry: telemetry.New()})
			if err != nil {
				return nil, nil, err
			}
			return sup, sup.Kill, nil
		},
		"basefs": func(dev blockdev.Device) (fsapi.FS, func(), error) {
			base, err := basefs.Mount(dev, basefs.Options{})
			if err != nil {
				return nil, nil, err
			}
			return base, base.Kill, nil
		},
	}
	for _, name := range []string{"read_hot", "stream_cold"} {
		w := findWorkload(name)
		for layer, mount := range mounts {
			var counts [2]blockdev.StatsSnapshot
			for i, traced := range []bool{false, true} {
				mem, err := formatted(w)
				if err != nil {
					t.Fatal(err)
				}
				var dev blockdev.Device = mem
				if traced {
					dev = newTracedDev(mem, newTracer(1))
				}
				fs, kill, err := mount(dev)
				if err != nil {
					t.Fatal(err)
				}
				counts[i] = runFixed(t, w, mem, fs)
				kill()
			}
			plain, traced := counts[0], counts[1]
			if w.mix == mixStream {
				// Under cache pressure which buffers write-back has cleaned
				// when the cache evicts is a matter of timing, and so is the
				// number of re-reads. Writes and flushes are not.
				plain.Reads, plain.ReadCalls, traced.Reads, traced.ReadCalls = 0, 0, 0, 0
			}
			if plain != traced {
				t.Errorf("%s on %s: device traffic differs\n  without decorator %+v\n  with decorator    %+v", name, layer, plain, traced)
			}
			if plain.WriteCalls == 0 || plain.Flushes == 0 {
				t.Errorf("%s on %s: no device traffic to compare: %+v", name, layer, plain)
			}
		}
	}
}

// TestDecoratorForwardsOptionalInterfaces pins the optional interfaces the
// filesystem probes a device for. Mem implements all of them, so the
// decorator must too.
func TestDecoratorForwardsOptionalInterfaces(t *testing.T) {
	mem := blockdev.NewMem(64)
	var plain, wrapped blockdev.Device = mem, newTracedDev(mem, newTracer(1))
	probes := map[string]func(blockdev.Device) bool{
		"VecReader":   func(d blockdev.Device) bool { _, ok := d.(blockdev.VecReader); return ok },
		"VecWriter":   func(d blockdev.Device) bool { _, ok := d.(blockdev.VecWriter); return ok },
		"Snapshotter": func(d blockdev.Device) bool { _, ok := d.(blockdev.Snapshotter); return ok },
		"AsyncWriter": func(d blockdev.Device) bool { _, ok := d.(blockdev.AsyncWriter); return ok },
	}
	for name, has := range probes {
		if has(plain) != has(wrapped) {
			t.Errorf("%s: Mem implements it: %v, decorator: %v", name, has(plain), has(wrapped))
		}
	}
}
