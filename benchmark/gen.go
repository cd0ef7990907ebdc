package main

import (
	"fmt"
	"math/rand"

	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/model"
)

// The generators below produce steady-state traces: live files, directories
// and descriptors are bounded, so a trace of any length neither fills the
// image nor degenerates into error returns (the stock workload.MetaHeavy
// profile has 64% error outcomes at 300k ops). Each one drives a private
// specification model while it generates, so every op carries its oracle
// outcome, and closes its lap: the lap ends with the namespace, sizes, inode
// numbers and descriptor table it started with, so it can repeat.

// maxErrorShare is the share of oracle outcomes that may be errors before
// set-up refuses the trace.
const maxErrorShare = 0.01

// poolBytes sizes the payload pool every write slices its data from.
const poolBytes = 1 << 20

// gen is the state shared by the generators: the model, the trace under
// construction, and the generator's own view of what is live.
type gen struct {
	rng  *rand.Rand
	m    *model.Model
	t    *trace
	out  *[]op // &t.pre or &t.lap
	errs int
	muts int // state-changing ops emitted so far
}

// generate builds one client's trace for a workload. The same (workload,
// seed, client) always yields the same trace.
func generate(w *workload, sb *disklayout.Superblock, seed int64, client int, scale float64) (*trace, error) {
	g := &gen{
		rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + int64(len(w.name)))),
		m:   model.New(sb),
		t:   &trace{pool: make([]byte, poolBytes)},
	}
	g.rng.Read(g.t.pool)
	root := fmt.Sprintf("/c%d", client)
	switch w.mix {
	case mixMail:
		g.mail(root, w, scale)
	case mixHot:
		g.hot(root, w, scale)
	case mixStream:
		g.stream(root, scale)
	}
	if total := len(g.t.pre) + len(g.t.lap); float64(g.errs) > maxErrorShare*float64(total) {
		return nil, fmt.Errorf("%s: %d of %d oracle outcomes are errors", w.name, g.errs, total)
	}
	if fds := g.m.OpenFDs(); len(fds) != 0 {
		return nil, fmt.Errorf("%s: lap leaves %d descriptors open", w.name, len(fds))
	}
	return g.t, nil
}

func (g *gen) path(p string) int32 {
	g.t.paths = append(g.t.paths, p)
	return int32(len(g.t.paths) - 1)
}

// emit runs the op on the model, records the oracle outcome and appends it.
func (g *gen) emit(o op) outcome {
	out, err := call(g.m, g.t, &o, fsapi.FD(o.fd))
	o.errno, o.retFD, o.retN, o.ino, o.size = out.errno, out.retFD, out.retN, out.ino, out.size
	if err != nil {
		g.errs++
	}
	if !o.kind.readOnly() {
		g.muts++
	}
	*g.out = append(*g.out, o)
	return out
}

// write emits a write of n pool bytes at off.
func (g *gen) write(fd int32, off int64, n int) {
	g.emit(op{kind: opWrite, fd: fd, off: off, n: int32(n), src: int32(g.rng.Intn(poolBytes - n + 1))})
}

// mailFile is one live file of the mail mix.
type mailFile struct {
	path   int32
	size   int64
	fd     int32 // -1 when closed
	unlink bool  // its unlink hits the planted error-return specimen
}

// Bounds of the mail mix's live set.
const (
	mailDirs     = 8
	mailMaxLive  = 128
	mailMaxOpen  = 16
	mailMaxBytes = 16 << 10
)

// Fault tokens the storm's specimens key on (see stormSpecimens).
const (
	crashToken = "boom"
	errToken   = "eio"
)

// mail is the varmail-style mix: create, small append + fsync, close,
// unlink and stat over a bounded live set in one private subtree. With
// w.plantEvery set, about every plantEvery state-changing ops one create
// carries a fault token; with w.syncEvery set, a Sync follows every
// syncEvery state-changing ops.
func (g *gen) mail(root string, w *workload, scale float64) {
	g.out = &g.t.pre
	g.emit(op{kind: opMkdir, path: g.path(root)})
	dirs := make([]string, mailDirs)
	for i := range dirs {
		dirs[i] = fmt.Sprintf("%s/d%d", root, i)
		g.emit(op{kind: opMkdir, path: g.path(dirs[i])})
	}
	g.emit(op{kind: opSync})

	g.out = &g.t.lap
	var live, open []*mailFile
	drop := func(set []*mailFile, f *mailFile) []*mailFile {
		for i, x := range set {
			if x == f {
				set[i] = set[len(set)-1]
				return set[:len(set)-1]
			}
		}
		return set
	}
	serial, planted, lastPlant, lastSync := 0, 0, 0, 0
	g.muts = 0
	create := func() {
		name := fmt.Sprintf("%s/m%05d", dirs[g.rng.Intn(mailDirs)], serial)
		serial++
		f := &mailFile{}
		o := op{kind: opCreate}
		if w.plantEvery > 0 && g.muts-lastPlant >= w.plantEvery {
			lastPlant = g.muts
			planted++
			if planted%2 == 1 {
				name += "-" + crashToken
				o.fault = true
			} else {
				name += "-" + errToken
				f.unlink = true
			}
		}
		f.path = g.path(name)
		o.path = f.path
		f.fd = g.emit(o).retFD
		live, open = append(live, f), append(open, f)
	}
	closeFile := func(f *mailFile) {
		g.emit(op{kind: opClose, fd: f.fd})
		f.fd = -1
		open = drop(open, f)
	}
	unlink := func(f *mailFile) {
		g.emit(op{kind: opUnlink, path: f.path, fault: f.unlink})
		live = drop(live, f)
	}
	// However short the lap, a storm plants both kinds of fault in it.
	steps := max(int(float64(w.steps)*scale), 3*w.plantEvery)
	for s := 0; s < steps; s++ {
		if w.syncEvery > 0 && g.muts-lastSync >= w.syncEvery {
			lastSync = g.muts
			g.emit(op{kind: opSync})
		}
		r := g.rng.Intn(100)
		switch {
		case len(live) >= mailMaxLive:
			r = 80 // the live set is full: make room
		case len(open) >= mailMaxOpen:
			r = 60
		}
		var closed []*mailFile
		if r >= 70 && r < 90 {
			for _, f := range live {
				if f.fd < 0 {
					closed = append(closed, f)
				}
			}
		}
		switch {
		case r < 25 || len(live) == 0:
			create()
		case r < 55 && len(open) > 0:
			f := open[g.rng.Intn(len(open))]
			if f.size >= mailMaxBytes {
				closeFile(f)
				break
			}
			n := 64 + g.rng.Intn(512)
			g.write(f.fd, f.size, n)
			f.size += int64(n)
			g.emit(op{kind: opFsync, fd: f.fd})
		case r < 70 && len(open) > 0:
			closeFile(open[g.rng.Intn(len(open))])
		case r < 90 && len(closed) > 0:
			unlink(closed[g.rng.Intn(len(closed))])
		default:
			g.emit(op{kind: opStat, path: live[g.rng.Intn(len(live))].path})
		}
	}
	// Close the lap: back to the empty directories it started from.
	for len(open) > 0 {
		closeFile(open[0])
	}
	for len(live) > 0 {
		unlink(live[0])
	}
}

// Shape of the hot corpus: 64 files of 2-16 KiB in 8 directories, about
// 0.6 MiB in all against a default buffer cache of 4 MiB.
const (
	hotDirs  = 8
	hotFiles = 64
)

// hot is the read-mostly mix over a corpus that fits the default caches:
// by step, 50% stat, 30% open-read-close, 14% readdir and 6% in-place
// 256-byte updates. Nothing in the lap syncs.
func (g *gen) hot(root string, w *workload, scale float64) {
	g.out = &g.t.pre
	g.emit(op{kind: opMkdir, path: g.path(root)})
	dirs := make([]int32, hotDirs)
	for i := range dirs {
		dirs[i] = g.path(fmt.Sprintf("%s/d%d", root, i))
		g.emit(op{kind: opMkdir, path: dirs[i]})
	}
	type hotFile struct {
		path int32
		size int64
	}
	files := make([]hotFile, hotFiles)
	for i := range files {
		f := &files[i]
		f.path = g.path(fmt.Sprintf("%s/d%d/f%02d", root, i%hotDirs, i))
		f.size = int64(2048 + 1024*g.rng.Intn(15))
		fd := g.emit(op{kind: opCreate, path: f.path}).retFD
		g.write(fd, 0, int(f.size))
		g.emit(op{kind: opClose, fd: fd})
	}
	g.emit(op{kind: opSync})

	g.out = &g.t.lap
	steps := int(float64(w.steps) * scale)
	for s := 0; s < steps; s++ {
		f := files[g.rng.Intn(hotFiles)]
		switch r := g.rng.Intn(100); {
		case r < 50:
			g.emit(op{kind: opStat, path: f.path})
		case r < 80:
			fd := g.emit(op{kind: opOpen, path: f.path}).retFD
			g.emit(op{kind: opRead, fd: fd, off: g.rng.Int63n(f.size - 2047), n: 2048})
			g.emit(op{kind: opClose, fd: fd})
		case r < 94:
			g.emit(op{kind: opReaddir, path: dirs[g.rng.Intn(hotDirs)]})
		default:
			fd := g.emit(op{kind: opOpen, path: f.path}).retFD
			g.write(fd, g.rng.Int63n(f.size-255), 256)
			g.emit(op{kind: opClose, fd: fd})
		}
	}
}

// Shape of the streaming corpus: 64 files of 1 MiB, sixteen times the
// default 1024-block buffer cache, moved in 64 KiB calls.
const (
	streamFiles  = 64
	streamChunk  = 64 << 10
	streamChunks = 16
	streamRandom = 16 // random 4 KiB reads per round
)

// stream is the bulk-data mix: each round rewrites one file sequentially in
// 64 KiB calls with an fsync every fourth call, reads a different file back
// sequentially, then does random 4 KiB reads in a third. Every fourth round
// unlinks and re-creates the file it writes, so allocation runs too. One lap
// rewrites every file once.
func (g *gen) stream(root string, scale float64) {
	g.out = &g.t.pre
	g.emit(op{kind: opMkdir, path: g.path(root)})
	nfiles := streamFiles
	if scale < 1 {
		nfiles = 8
	}
	files := make([]int32, nfiles)
	writeAll := func(fd int32, syncs bool) {
		for c := 0; c < streamChunks; c++ {
			g.write(fd, int64(c)*streamChunk, streamChunk)
			if syncs && c%4 == 3 {
				g.emit(op{kind: opFsync, fd: fd})
			}
		}
	}
	for i := range files {
		files[i] = g.path(fmt.Sprintf("%s/s%02d", root, i))
		fd := g.emit(op{kind: opCreate, path: files[i]}).retFD
		writeAll(fd, false)
		g.emit(op{kind: opClose, fd: fd})
	}
	g.emit(op{kind: opSync})

	g.out = &g.t.lap
	for round, i := range g.rng.Perm(nfiles) {
		var fd int32
		if round%4 == 3 {
			g.emit(op{kind: opUnlink, path: files[i]})
			fd = g.emit(op{kind: opCreate, path: files[i]}).retFD
		} else {
			fd = g.emit(op{kind: opOpen, path: files[i]}).retFD
		}
		writeAll(fd, true)
		g.emit(op{kind: opClose, fd: fd})

		other := func() int32 { return files[(i+1+g.rng.Intn(nfiles-1))%nfiles] }
		fd = g.emit(op{kind: opOpen, path: other()}).retFD
		for c := 0; c < streamChunks; c++ {
			g.emit(op{kind: opRead, fd: fd, off: int64(c) * streamChunk, n: streamChunk})
		}
		g.emit(op{kind: opClose, fd: fd})

		fd = g.emit(op{kind: opOpen, path: other()}).retFD
		for c := 0; c < streamRandom; c++ {
			blk := g.rng.Int63n(streamChunks * streamChunk / disklayout.BlockSize)
			g.emit(op{kind: opRead, fd: fd, off: blk * disklayout.BlockSize, n: disklayout.BlockSize})
		}
		g.emit(op{kind: opClose, fd: fd})
	}
}
