package main

// mix selects a trace generator.
type mix int

const (
	mixMail mix = iota
	mixHot
	mixStream
)

// workload is one benchmark scenario: a generator, a client count, and the
// rig the clients drive.
type workload struct {
	name string
	// why records what the workload is in the suite for; BENCHMARK.json and
	// the README carry the same sentence.
	why     string
	mix     mix
	clients int
	// steps is the lap length of the mail and hot mixes, in generator steps
	// (a step is one to three calls).
	steps int
	// blocks is the image size per filesystem, in 4 KiB blocks.
	blocks uint32
	// remote serves one volume per client over TCP loopback instead of
	// mounting one local filesystem for all clients.
	remote bool
	// pipelined submits through SubmitOp and waits only at barriers.
	pipelined bool
	// plantEvery, when set, plants a fault token about every plantEvery
	// state-changing ops and arms the storm's specimens.
	plantEvery int
	// syncEvery, when set, issues a Sync every syncEvery state-changing ops.
	syncEvery int
}

// Image sizes: the experiments' default 64 MiB; 256 MiB for the one workload
// whose data (64 MiB) has to dwarf the cache without filling the image; and
// 32 MiB for the storm, because a recovery costs about 0.7 ms per MiB of
// image (48 ms at 64 MiB, 24 ms at 32 MiB) and even half a pass must see
// well over a hundred of them for a 90th percentile.
const (
	defaultBlocks = 16384
	streamBlocks  = 65536
	stormBlocks   = 8192
)

// workloads is the suite, in reporting order. Names are fixed: results are
// compared across commits by (metric, workload).
var workloads = []*workload{
	{
		name: "meta_fsync", mix: mixMail, clients: 2, steps: 40000, blocks: defaultBlocks,
		why: "durability path: oplog recording, stable points, journal group commit and flush barriers do most of the work; two clients let commit batching and the striped fence matter",
	},
	{
		name: "read_hot", mix: mixHot, clients: 1, steps: 60000, blocks: defaultBlocks,
		why: "cache-resident reads bypass journal and device, isolating supervisor and cache hit-path cost; the no-change side of every durability or recovery optimisation",
	},
	{
		name: "stream_cold", mix: mixStream, clients: 1, blocks: streamBlocks,
		why: "64 MiB of files, 16x the buffer cache: extent placement, delayed allocation, vectored IO and the device boundary dominate, metadata paths barely run",
	},
	{
		name: "fault_storm", mix: mixMail, clients: 1, steps: 12000, blocks: stormBlocks, plantEvery: 400, syncEvery: 200,
		why: "recurring deterministic crash and error-return bugs: contained reboot, fsck, shadow replay and hand-off do most of the work, and no other workload runs them",
	},
	{
		name: "remote_read", mix: mixHot, clients: 2, steps: 60000, blocks: defaultBlocks, remote: true,
		why: "every call pays a loopback round trip to a served volume, so protocol and serving cost dominate and the filesystem below is nearly idle",
	},
	{
		name: "remote_write", mix: mixMail, clients: 2, steps: 40000, blocks: defaultBlocks, remote: true, pipelined: true,
		why: "pipelined writes that block only at fsync barriers: batching, window drains and barriers, the opposite use of the wire layer from remote_read",
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
