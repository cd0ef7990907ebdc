// Package workload generates deterministic filesystem operation traces for
// the recovery, availability, and differential-testing tests, the torture
// campaign and the command-line tools.
//
// Each generator drives a private specification-model instance while it
// generates, so the emitted trace is self-consistent (descriptor numbers
// refer to descriptors that the lowest-free policy really produces, paths
// mostly exist) and carries the oracle outcome of every operation. The same
// trace can then be applied to the base filesystem, the shadow, or a
// baseline, and the outcomes compared — the paper's testing phase "uses the
// base as a reference filesystem to test the shadow by running a large
// volume of workloads and monitoring for discrepancies" (§4.3).
//
// Profiles correspond to the workload families filesystem papers
// conventionally evaluate with:
//
//	MetaHeavy  – varmail-like: create/append/fsync/unlink churn in few dirs
//	DataHeavy  – fileserver-like: whole-file writes and appends, larger IO
//	ReadMostly – webserver-like: build a corpus, then ~90% reads
//	Soup       – uniform random valid and invalid operations, for coverage
//	BigFile    – large-file growth: multi-block sequential appends, shrinking
//	             truncates, and hole-leaving far-offset writes, shaped so
//	             crash/fault windows land inside extent-split and
//	             delayed-allocation seams
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/disklayout"
	"repro/internal/fsapi"
	"repro/internal/model"
	"repro/internal/oplog"
)

// Profile selects a workload family.
type Profile int

// Profiles.
const (
	MetaHeavy Profile = iota
	DataHeavy
	ReadMostly
	Soup
	BigFile
)

// String returns the profile name used in experiment tables.
func (p Profile) String() string {
	switch p {
	case MetaHeavy:
		return "metaheavy"
	case DataHeavy:
		return "dataheavy"
	case ReadMostly:
		return "readmostly"
	case Soup:
		return "soup"
	case BigFile:
		return "bigfile"
	}
	return fmt.Sprintf("profile(%d)", int(p))
}

// Profiles lists every profile, for experiment sweeps.
func Profiles() []Profile {
	return []Profile{MetaHeavy, DataHeavy, ReadMostly, Soup, BigFile}
}

// Config parameterizes generation.
type Config struct {
	// Profile selects the operation mix.
	Profile Profile
	// Seed drives all randomness; equal configs generate equal traces.
	Seed int64
	// NumOps is the trace length.
	NumOps int
	// SyncEvery inserts a Sync after every n mutating ops (0 disables).
	SyncEvery int
	// Superblock supplies the geometry for the internal model so ENOSPC
	// behavior in the trace matches the target image. Nil selects a roomy
	// default (64 MiB, 4096 inodes).
	Superblock *disklayout.Superblock
	// InvalidFrac is the fraction of deliberately invalid operations
	// (missing paths, bad descriptors) mixed in for error-path coverage.
	// Default 0.05 for Soup, 0 otherwise.
	InvalidFrac float64
}

// gen carries generation state.
type gen struct {
	rng   *rand.Rand
	m     *model.Model
	cfg   Config
	dirs  []string
	files []string
	links []string
	fds   []openFD
	ops   []*oplog.Op
	muts  int
}

type openFD struct {
	fd   fsapi.FD
	path string
	size int64
}

// Generate produces a deterministic, outcome-filled operation trace.
func Generate(cfg Config) []*oplog.Op {
	if cfg.NumOps <= 0 {
		cfg.NumOps = 1000
	}
	sb := cfg.Superblock
	if sb == nil {
		var err error
		sb, err = disklayout.Geometry(16384, 4096, 64)
		if err != nil {
			panic("workload: default geometry invalid: " + err.Error())
		}
	}
	if cfg.InvalidFrac == 0 && cfg.Profile == Soup {
		cfg.InvalidFrac = 0.05
	}
	g := &gen{
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		m:    model.New(sb),
		cfg:  cfg,
		dirs: []string{"/"},
	}
	g.setup()
	for len(g.ops) < cfg.NumOps {
		g.step()
	}
	// Close whatever is still open only for ReadMostly (a quiescent corpus);
	// other profiles deliberately end with open descriptors so recovery
	// experiments have a live fd table to reconstruct.
	return g.ops
}

// emit applies the op to the model (filling the oracle outcome) and records
// it, updating the generator's tracking state from the outcome.
func (g *gen) emit(o *oplog.Op) {
	o.Seq = uint64(len(g.ops))
	err := oplog.Apply(g.m, o)
	g.ops = append(g.ops, o)
	if o.Kind.Mutating() {
		g.muts++
		if g.cfg.SyncEvery > 0 && g.muts%g.cfg.SyncEvery == 0 && o.Kind != oplog.KSync {
			s := &oplog.Op{Seq: uint64(len(g.ops)), Kind: oplog.KSync}
			_ = oplog.Apply(g.m, s)
			g.ops = append(g.ops, s)
		}
	}
	if err != nil {
		return
	}
	switch o.Kind {
	case oplog.KMkdir:
		g.dirs = append(g.dirs, o.Path)
	case oplog.KRmdir:
		g.removeDir(o.Path)
	case oplog.KCreate:
		g.files = append(g.files, o.Path)
		g.fds = append(g.fds, openFD{fd: o.RetFD, path: o.Path})
	case oplog.KOpen:
		g.fds = append(g.fds, openFD{fd: o.RetFD, path: o.Path})
	case oplog.KClose:
		g.removeFD(o.FD)
	case oplog.KUnlink:
		g.removeFile(o.Path)
		g.removeLink(o.Path)
	case oplog.KSymlink:
		g.links = append(g.links, o.Path)
	case oplog.KRename:
		g.renameTracked(o.Path, o.Path2)
	case oplog.KLink:
		g.files = append(g.files, o.Path2)
	case oplog.KWrite:
		for i := range g.fds {
			if g.fds[i].fd == o.FD {
				if end := o.Off + int64(o.RetN); end > g.fds[i].size {
					g.fds[i].size = end
				}
			}
		}
	}
}

func (g *gen) removeDir(p string) {
	for i, d := range g.dirs {
		if d == p {
			g.dirs = append(g.dirs[:i], g.dirs[i+1:]...)
			return
		}
	}
}

func (g *gen) removeFile(p string) {
	for i, f := range g.files {
		if f == p {
			g.files = append(g.files[:i], g.files[i+1:]...)
			return
		}
	}
}

func (g *gen) removeLink(p string) {
	for i, l := range g.links {
		if l == p {
			g.links = append(g.links[:i], g.links[i+1:]...)
			return
		}
	}
}

func (g *gen) removeFD(fd fsapi.FD) {
	for i := range g.fds {
		if g.fds[i].fd == fd {
			g.fds = append(g.fds[:i], g.fds[i+1:]...)
			return
		}
	}
}

func (g *gen) renameTracked(old, new string) {
	g.removeFile(new)
	g.removeDir(new)
	g.removeLink(new)
	for i, f := range g.files {
		if f == old {
			g.files[i] = new
			return
		}
	}
	for i, d := range g.dirs {
		if d == old {
			g.dirs[i] = new
			return
		}
	}
	for i, l := range g.links {
		if l == old {
			g.links[i] = new
			return
		}
	}
}

// setup creates the profile's initial directory structure.
func (g *gen) setup() {
	nd := 4
	if g.cfg.Profile == ReadMostly {
		nd = 8
	}
	for i := 0; i < nd; i++ {
		g.emit(&oplog.Op{Kind: oplog.KMkdir, Path: fmt.Sprintf("/dir%d", i), Perm: 0o755})
	}
	if g.cfg.Profile == ReadMostly {
		// Build the corpus the read phase will hammer.
		for i := 0; i < 32 && len(g.ops) < g.cfg.NumOps; i++ {
			path := fmt.Sprintf("/dir%d/doc%d", i%nd, i)
			g.emit(&oplog.Op{Kind: oplog.KCreate, Path: path, Perm: 0o644})
			if len(g.fds) > 0 {
				fd := g.fds[len(g.fds)-1].fd
				g.emit(&oplog.Op{Kind: oplog.KWrite, FD: fd, Off: 0, Data: g.payload(2048)})
				g.emit(&oplog.Op{Kind: oplog.KClose, FD: fd})
			}
		}
	}
}

func (g *gen) payload(n int) []byte {
	b := make([]byte, n)
	g.rng.Read(b)
	return b
}

func (g *gen) randDir() string { return g.dirs[g.rng.Intn(len(g.dirs))] }
func (g *gen) freshName(dir, prefix string) string {
	if dir == "/" {
		return fmt.Sprintf("/%s%d", prefix, g.rng.Intn(1<<30))
	}
	return fmt.Sprintf("%s/%s%d", dir, prefix, g.rng.Intn(1<<30))
}

// step emits one (occasionally two) operations per the profile's mix.
func (g *gen) step() {
	if g.cfg.InvalidFrac > 0 && g.rng.Float64() < g.cfg.InvalidFrac {
		g.stepInvalid()
		return
	}
	switch g.cfg.Profile {
	case MetaHeavy:
		g.stepMetaHeavy()
	case DataHeavy:
		g.stepDataHeavy()
	case ReadMostly:
		g.stepReadMostly()
	case BigFile:
		g.stepBigFile()
	default:
		g.stepSoup()
	}
}

func (g *gen) stepMetaHeavy() {
	switch r := g.rng.Intn(100); {
	case r < 30: // create
		g.emit(&oplog.Op{Kind: oplog.KCreate, Path: g.freshName(g.randDir(), "mail"), Perm: 0o644})
	case r < 55 && len(g.fds) > 0: // append small + fsync
		f := g.fds[g.rng.Intn(len(g.fds))]
		g.emit(&oplog.Op{Kind: oplog.KWrite, FD: f.fd, Off: f.size, Data: g.payload(64 + g.rng.Intn(512))})
		g.emit(&oplog.Op{Kind: oplog.KFsync, FD: f.fd})
	case r < 70 && len(g.fds) > 0: // close
		g.emit(&oplog.Op{Kind: oplog.KClose, FD: g.fds[g.rng.Intn(len(g.fds))].fd})
	case r < 85 && len(g.files) > 0: // unlink
		g.emit(&oplog.Op{Kind: oplog.KUnlink, Path: g.files[g.rng.Intn(len(g.files))]})
	case r < 92 && len(g.files) > 0: // stat probe
		g.emit(&oplog.Op{Kind: oplog.KStatProbe, Path: g.files[g.rng.Intn(len(g.files))]})
	default:
		g.emit(&oplog.Op{Kind: oplog.KMkdir, Path: g.freshName(g.randDir(), "box"), Perm: 0o755})
	}
}

func (g *gen) stepDataHeavy() {
	switch r := g.rng.Intn(100); {
	case r < 15:
		g.emit(&oplog.Op{Kind: oplog.KCreate, Path: g.freshName(g.randDir(), "blob"), Perm: 0o644})
	case r < 60 && len(g.fds) > 0: // large-ish write
		f := g.fds[g.rng.Intn(len(g.fds))]
		off := f.size
		if g.rng.Intn(4) == 0 && f.size > 0 { // overwrite sometimes
			off = g.rng.Int63n(f.size)
		}
		g.emit(&oplog.Op{Kind: oplog.KWrite, FD: f.fd, Off: off,
			Data: g.payload(disklayout.BlockSize/2 + g.rng.Intn(3*disklayout.BlockSize))})
	case r < 75 && len(g.fds) > 0: // read probe
		f := g.fds[g.rng.Intn(len(g.fds))]
		g.emit(&oplog.Op{Kind: oplog.KReadProbe, FD: f.fd, Off: 0, Size: 4096})
	case r < 85 && len(g.files) > 0:
		g.emit(&oplog.Op{Kind: oplog.KTruncate, Path: g.files[g.rng.Intn(len(g.files))],
			Size: g.rng.Int63n(8 * disklayout.BlockSize)})
	case r < 92 && len(g.fds) > 4:
		g.emit(&oplog.Op{Kind: oplog.KClose, FD: g.fds[g.rng.Intn(len(g.fds))].fd})
	default:
		g.emit(&oplog.Op{Kind: oplog.KSync})
	}
}

func (g *gen) stepReadMostly() {
	switch r := g.rng.Intn(100); {
	case r < 55 && len(g.files) > 0: // stat
		g.emit(&oplog.Op{Kind: oplog.KStatProbe, Path: g.files[g.rng.Intn(len(g.files))]})
	case r < 80 && len(g.files) > 0: // open-read-close
		path := g.files[g.rng.Intn(len(g.files))]
		g.emit(&oplog.Op{Kind: oplog.KOpen, Path: path})
		if len(g.fds) > 0 {
			fd := g.fds[len(g.fds)-1].fd
			g.emit(&oplog.Op{Kind: oplog.KReadProbe, FD: fd, Off: 0, Size: 2048})
			g.emit(&oplog.Op{Kind: oplog.KClose, FD: fd})
		}
	case r < 90: // readdir
		g.emit(&oplog.Op{Kind: oplog.KReadDirProbe, Path: g.randDir()})
	case r < 96 && len(g.files) > 0: // occasional update
		path := g.files[g.rng.Intn(len(g.files))]
		g.emit(&oplog.Op{Kind: oplog.KOpen, Path: path})
		if len(g.fds) > 0 {
			fd := g.fds[len(g.fds)-1].fd
			g.emit(&oplog.Op{Kind: oplog.KWrite, FD: fd, Off: 0, Data: g.payload(256)})
			g.emit(&oplog.Op{Kind: oplog.KClose, FD: fd})
		}
	default:
		g.emit(&oplog.Op{Kind: oplog.KCreate, Path: g.freshName(g.randDir(), "doc"), Perm: 0o644})
	}
}

func (g *gen) stepSoup() {
	switch r := g.rng.Intn(130); {
	case r < 15:
		g.emit(&oplog.Op{Kind: oplog.KCreate, Path: g.freshName(g.randDir(), "f"), Perm: uint16(g.rng.Intn(0o1000))})
	case r < 25:
		g.emit(&oplog.Op{Kind: oplog.KMkdir, Path: g.freshName(g.randDir(), "d"), Perm: 0o755})
	case r < 40 && len(g.fds) > 0:
		f := g.fds[g.rng.Intn(len(g.fds))]
		g.emit(&oplog.Op{Kind: oplog.KWrite, FD: f.fd, Off: g.rng.Int63n(4 * disklayout.BlockSize),
			Data: g.payload(1 + g.rng.Intn(2*disklayout.BlockSize))})
	case r < 48 && len(g.fds) > 0:
		g.emit(&oplog.Op{Kind: oplog.KClose, FD: g.fds[g.rng.Intn(len(g.fds))].fd})
	case r < 55 && len(g.files) > 0:
		g.emit(&oplog.Op{Kind: oplog.KOpen, Path: g.files[g.rng.Intn(len(g.files))]})
	case r < 63 && len(g.files) > 0:
		g.emit(&oplog.Op{Kind: oplog.KUnlink, Path: g.files[g.rng.Intn(len(g.files))]})
	case r < 70 && len(g.dirs) > 1:
		g.emit(&oplog.Op{Kind: oplog.KRmdir, Path: g.dirs[1+g.rng.Intn(len(g.dirs)-1)]})
	case r < 78 && len(g.files) > 0:
		g.emit(&oplog.Op{Kind: oplog.KRename,
			Path:  g.files[g.rng.Intn(len(g.files))],
			Path2: g.freshName(g.randDir(), "rn")})
	case r < 84 && len(g.files) > 1 && g.rng.Intn(2) == 0: // rename over existing
		g.emit(&oplog.Op{Kind: oplog.KRename,
			Path:  g.files[g.rng.Intn(len(g.files))],
			Path2: g.files[g.rng.Intn(len(g.files))]})
	case r < 90 && len(g.files) > 0:
		g.emit(&oplog.Op{Kind: oplog.KLink,
			Path:  g.files[g.rng.Intn(len(g.files))],
			Path2: g.freshName(g.randDir(), "ln")})
	case r < 96:
		g.emit(&oplog.Op{Kind: oplog.KSymlink,
			Path:  g.freshName(g.randDir(), "sym"),
			Path2: "/target/" + g.freshName("/", "t")})
	case r < 102 && len(g.files) > 0:
		g.emit(&oplog.Op{Kind: oplog.KTruncate, Path: g.files[g.rng.Intn(len(g.files))],
			Size: g.rng.Int63n(6 * disklayout.BlockSize)})
	case r < 108 && len(g.files) > 0:
		g.emit(&oplog.Op{Kind: oplog.KSetPerm, Path: g.files[g.rng.Intn(len(g.files))],
			Perm: uint16(g.rng.Intn(0o1000))})
	case r < 114 && len(g.fds) > 0:
		f := g.fds[g.rng.Intn(len(g.fds))]
		g.emit(&oplog.Op{Kind: oplog.KReadProbe, FD: f.fd, Off: g.rng.Int63n(4096), Size: int64(g.rng.Intn(4096))})
	case r < 120:
		g.emit(&oplog.Op{Kind: oplog.KReadDirProbe, Path: g.randDir()})
	case r < 125 && len(g.fds) > 0:
		g.emit(&oplog.Op{Kind: oplog.KFsync, FD: g.fds[g.rng.Intn(len(g.fds))].fd})
	case r < 127:
		g.emit(&oplog.Op{Kind: oplog.KSync})
	default:
		if len(g.files) > 0 {
			g.emit(&oplog.Op{Kind: oplog.KStatProbe, Path: g.files[g.rng.Intn(len(g.files))]})
		} else {
			g.emit(&oplog.Op{Kind: oplog.KStatProbe, Path: "/"})
		}
	}
}

// stepBigFile grows a handful of large files with multi-block sequential
// appends, punctuated by shrinking truncates and writes past EOF that leave
// holes. The shapes target the extent layout's seams: appends extend (and
// split) the tail extent through delayed allocation, truncates trim or
// shorten extents, and far-offset writes force a discontiguous extent after
// a hole — so short crash/fault windows cut from this profile land inside
// extent-split and delalloc materialization.
func (g *gen) stepBigFile() {
	const maxSize = 64 * disklayout.BlockSize
	switch r := g.rng.Intn(100); {
	case r < 12 || len(g.fds) == 0: // start another big file
		g.emit(&oplog.Op{Kind: oplog.KCreate, Path: g.freshName(g.randDir(), "big"), Perm: 0o644})
	case r < 50: // multi-block sequential append
		f := g.fds[g.rng.Intn(len(g.fds))]
		if f.size >= maxSize { // keep the working set bounded
			g.emit(&oplog.Op{Kind: oplog.KTruncate, Path: f.path, Size: f.size / 4})
			return
		}
		g.emit(&oplog.Op{Kind: oplog.KWrite, FD: f.fd, Off: f.size,
			Data: g.payload(2*disklayout.BlockSize + g.rng.Intn(6*disklayout.BlockSize))})
		if g.rng.Intn(3) == 0 {
			g.emit(&oplog.Op{Kind: oplog.KFsync, FD: f.fd})
		}
	case r < 64: // write past EOF, leaving a hole before the new extent
		f := g.fds[g.rng.Intn(len(g.fds))]
		off := f.size + int64(1+g.rng.Intn(12))*disklayout.BlockSize
		g.emit(&oplog.Op{Kind: oplog.KWrite, FD: f.fd, Off: off,
			Data: g.payload(1 + g.rng.Intn(disklayout.BlockSize))})
	case r < 78 && len(g.files) > 0: // shrink trims extents; grow adds a tail hole
		g.emit(&oplog.Op{Kind: oplog.KTruncate, Path: g.files[g.rng.Intn(len(g.files))],
			Size: g.rng.Int63n(32 * disklayout.BlockSize)})
	case r < 86: // overwrite inside allocated range (mid-extent split shapes)
		f := g.fds[g.rng.Intn(len(g.fds))]
		off := int64(0)
		if f.size > 0 {
			off = g.rng.Int63n(f.size)
		}
		g.emit(&oplog.Op{Kind: oplog.KWrite, FD: f.fd, Off: off,
			Data: g.payload(1 + g.rng.Intn(2*disklayout.BlockSize))})
	case r < 92:
		f := g.fds[g.rng.Intn(len(g.fds))]
		g.emit(&oplog.Op{Kind: oplog.KReadProbe, FD: f.fd,
			Off: g.rng.Int63n(maxSize), Size: int64(g.rng.Intn(2 * disklayout.BlockSize))})
	case r < 96:
		g.emit(&oplog.Op{Kind: oplog.KFsync, FD: g.fds[g.rng.Intn(len(g.fds))].fd})
	default:
		g.emit(&oplog.Op{Kind: oplog.KSync})
	}
}

// stepInvalid emits a deliberately failing operation for error-path
// coverage: missing paths, bad descriptors, impossible arguments.
func (g *gen) stepInvalid() {
	switch g.rng.Intn(6) {
	case 0:
		g.emit(&oplog.Op{Kind: oplog.KOpen, Path: "/no/such/path" + g.freshName("/", "x")})
	case 1:
		g.emit(&oplog.Op{Kind: oplog.KClose, FD: fsapi.FD(1000 + g.rng.Intn(1000))})
	case 2:
		g.emit(&oplog.Op{Kind: oplog.KUnlink, Path: g.randDir()}) // unlink a directory
	case 3:
		g.emit(&oplog.Op{Kind: oplog.KMkdir, Path: "/", Perm: 0o755})
	case 4:
		g.emit(&oplog.Op{Kind: oplog.KWrite, FD: fsapi.FD(2000), Off: 0, Data: []byte("x")})
	default:
		g.emit(&oplog.Op{Kind: oplog.KRmdir, Path: "/missing" + g.freshName("/", "y")})
	}
}
