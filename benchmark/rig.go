package main

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/basefs"
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/disklayout"
	"repro/internal/faultinject"
	"repro/internal/fsapi"
	"repro/internal/fswire"
	"repro/internal/mkfs"
	"repro/internal/model"
	"repro/internal/shadowfs"
	"repro/internal/telemetry"
	"repro/internal/volmgr"
)

// rigKind selects what the clients drive: the system under test, or one
// layer alone for an isolation probe.
type rigKind int

const (
	// rigSystem is the workload's real target: a supervised core.FS over a
	// Mem for local workloads, an fswire server over a volmgr fleet for
	// remote ones. Production-default configuration throughout.
	rigSystem rigKind = iota
	// rigBase is a bare basefs.Mount with the same clients (no supervisor).
	rigBase
	// rigShadow is a shadowfs over a fresh image; it is strictly sequential,
	// so only client 0 runs.
	rigShadow
	// rigFloor serves one in-memory specification model per client over the
	// wire: the protocol's own cost with a near-free backend.
	rigFloor
	// rigInProc drives the fleet's volumes directly, without the wire.
	rigInProc
)

// rig is a built target plus everything the benchmark reads from it
// afterwards. It holds one filesystem for all clients (local workloads) or
// one per client (remote workloads).
type rig struct {
	fs   []fsapi.FS       // per client
	wire []*fswire.Client // per client; set when the workload pipelines
	// shared is set when all clients work in one filesystem, so descriptor
	// and inode numbers depend on how their calls interleave.
	shared bool
	mems   []*blockdev.Mem // per filesystem
	sups   []*core.FS      // per filesystem; nil entries for unsupervised rigs
	dev    *tracedDev      // set on a traced local rig
	// snapshot reads every telemetry sink of the rig, merged.
	snapshot func() telemetry.Snapshot
	// unmount shuts the rig down cleanly (sync, checkpoint, stop servers).
	unmount func() error
	// kill abandons the rig without syncing.
	kill func()
}

// stormSpecimens arms the two deterministic bugs fault_storm recurs on: a
// crash on entry to create and a spurious EIO on entry to unlink, each keyed
// on a token the generator plants in a file name.
func stormSpecimens(seed int64) *faultinject.Registry {
	reg := faultinject.NewRegistry(seed)
	reg.Arm(&faultinject.Specimen{ID: "storm-crash", Class: faultinject.Crash, Deterministic: true,
		Op: "create", Point: "entry", PathSubstr: crashToken})
	reg.Arm(&faultinject.Specimen{ID: "storm-eio", Class: faultinject.ErrReturn, Deterministic: true,
		Op: "unlink", Point: "entry", PathSubstr: errToken})
	return reg
}

func geometry(w *workload) (*disklayout.Superblock, error) {
	return disklayout.Geometry(w.blocks, 0, 0)
}

func formatted(w *workload) (*blockdev.Mem, error) {
	mem := blockdev.NewMem(w.blocks)
	if _, err := mkfs.Format(mem, mkfs.Options{}); err != nil {
		return nil, err
	}
	return mem, nil
}

// build brings up a rig. tr, when set, puts the span-recording decorator
// between a local filesystem and its device.
func build(w *workload, kind rigKind, seed int64, tr *tracer) (*rig, error) {
	switch {
	case kind == rigFloor:
		return buildFloor(w)
	case kind == rigInProc, kind == rigSystem && w.remote:
		return buildFleet(w, kind == rigSystem)
	}
	mem, err := formatted(w)
	if err != nil {
		return nil, err
	}
	r := &rig{mems: []*blockdev.Mem{mem}, sups: []*core.FS{nil}, shared: w.clients > 1,
		snapshot: func() telemetry.Snapshot { return telemetry.Snapshot{} }}
	var one fsapi.FS
	switch kind {
	case rigSystem:
		var dev blockdev.Device = mem
		if tr != nil {
			r.dev = newTracedDev(mem, tr)
			dev = r.dev
		}
		// A private sink: the default config would share the process-global
		// one between the passes of a run.
		sink := telemetry.New()
		cfg := core.Config{Telemetry: sink}
		if w.plantEvery > 0 {
			cfg.Base.Injector = stormSpecimens(seed)
		}
		sup, err := core.Mount(dev, cfg)
		if err != nil {
			return nil, err
		}
		one, r.sups[0], r.snapshot, r.unmount, r.kill = sup, sup, sink.Snapshot, sup.Unmount, sup.Kill
	case rigBase:
		base, err := basefs.Mount(mem, basefs.Options{})
		if err != nil {
			return nil, err
		}
		one, r.unmount, r.kill = base, base.Unmount, base.Kill
	case rigShadow:
		sh, err := shadowfs.New(mem, shadowfs.Options{SkipFsck: true})
		if err != nil {
			return nil, err
		}
		one, r.unmount, r.kill = sh, func() error { return nil }, func() {}
	}
	for i := 0; i < w.clients; i++ {
		r.fs = append(r.fs, one)
	}
	return r, nil
}

// serve starts an fswire server on a loopback port and returns its address
// and a function that stops it and waits for it to end.
func serve(backend fswire.Backend, opts ...fswire.ServerOption) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := fswire.NewServer(backend, opts...)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return ln.Addr().String(), func() {
		srv.Close()
		<-done
	}, nil
}

func volName(i int) string { return fmt.Sprintf("vol%d", i) }

// dial opens one connection per client, each to its own volume, with the
// default client configuration.
func (r *rig) dial(w *workload, addr string) error {
	for i := 0; i < w.clients; i++ {
		c, err := fswire.DialConfig(addr, volName(i), fswire.ClientConfig{})
		if err != nil {
			return err
		}
		r.fs = append(r.fs, c)
		r.wire = append(r.wire, c)
	}
	return nil
}

func (r *rig) hangup() {
	for _, c := range r.wire {
		c.Hangup()
	}
}

// buildFleet creates one volume per client in a volmgr fleet and, when wire
// is set, serves the fleet over TCP loopback and connects the clients.
func buildFleet(w *workload, wire bool) (*rig, error) {
	m, err := volmgr.New(volmgr.Config{PoolBlocks: uint32(w.clients) * w.blocks})
	if err != nil {
		return nil, err
	}
	r := &rig{snapshot: m.FleetSnapshot}
	stopServer := func() {}
	r.unmount = func() error {
		r.hangup()
		stopServer()
		return m.Shutdown()
	}
	r.kill = func() { _ = r.unmount() } // a fleet has no abrupt stop
	for i := 0; i < w.clients; i++ {
		v, err := m.Create(volName(i), volmgr.VolumeConfig{Blocks: w.blocks})
		if err != nil {
			r.kill()
			return nil, err
		}
		r.mems = append(r.mems, v.Device())
		r.sups = append(r.sups, v.Supervisor())
		if !wire {
			r.fs = append(r.fs, v)
		}
	}
	if wire {
		addr, stop, err := serve(fswire.Volumes(m), fswire.WithTelemetry(m.Telemetry()))
		if err != nil {
			r.kill()
			return nil, err
		}
		stopServer = stop
		if err := r.dial(w, addr); err != nil {
			r.kill()
			return nil, err
		}
	}
	return r, nil
}

// buildFloor serves one specification model per client.
func buildFloor(w *workload) (*rig, error) {
	sb, err := geometry(w)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	models := map[string]fsapi.FS{}
	backend := func(volume string) (fsapi.FS, error) {
		mu.Lock()
		defer mu.Unlock()
		if models[volume] == nil {
			models[volume] = fswire.Locked(model.New(sb))
		}
		return models[volume], nil
	}
	addr, stop, err := serve(backend)
	if err != nil {
		return nil, err
	}
	r := &rig{snapshot: func() telemetry.Snapshot { return telemetry.Snapshot{} }}
	r.unmount = func() error {
		r.hangup()
		stop()
		return nil
	}
	r.kill = func() { _ = r.unmount() }
	if err := r.dial(w, addr); err != nil {
		r.kill()
		return nil, err
	}
	for range r.fs {
		r.mems, r.sups = append(r.mems, nil), append(r.sups, nil)
	}
	return r, nil
}
