package shadowfs

import (
	"reflect"
	"testing"

	"repro/internal/fsapi"
	"repro/internal/handoff"
	"repro/internal/oplog"
	"repro/internal/workload"
)

// recordedTrace generates a recorded op sequence by running a workload
// against one shadow and keeping the ops with their outcomes.
func recordedTrace(t *testing.T, n int) []*oplog.Op {
	t.Helper()
	s, _, sb := freshShadow(t, 16384)
	trace := workload.Generate(workload.Config{
		Profile: workload.MetaHeavy, Seed: 7, NumOps: n, Superblock: sb,
	})
	recorded := make([]*oplog.Op, 0, len(trace))
	for i, op := range trace {
		rec := op.Clone()
		_ = oplog.Apply(s, rec)
		rec.Seq = uint64(i)
		recorded = append(recorded, rec)
	}
	return recorded
}

// foldStream verifies a chunk stream against its manifest the way the base
// does on absorb (each chunk's seal, index order, the manifest's chain) and
// folds it into the block images the base would hold afterwards: a later
// chunk overrides an earlier one, a freed block is retracted.
func foldStream(t *testing.T, chunks []*handoff.Chunk, m *handoff.Manifest) (blocks map[uint32][]byte, meta map[uint32]bool) {
	t.Helper()
	blocks, meta = map[uint32][]byte{}, map[uint32]bool{}
	sums := make([]uint32, 0, len(chunks))
	for i, c := range chunks {
		if err := c.Verify(); err != nil {
			t.Fatal(err)
		}
		if c.Index != i {
			t.Fatalf("chunk at position %d has index %d", i, c.Index)
		}
		for blk, data := range c.Blocks {
			blocks[blk], meta[blk] = data, c.Meta[blk]
		}
		for _, blk := range c.Freed {
			delete(blocks, blk)
			delete(meta, blk)
		}
		sums = append(sums, c.Sum)
	}
	if err := m.Verify(sums); err != nil {
		t.Fatal(err)
	}
	return blocks, meta
}

// requireSameHandoff fails unless two folded streams and their manifests
// carry the same block images, metadata flags, descriptors and clock.
func requireSameHandoff(t *testing.T, got, want []*handoff.Chunk, gotM, wantM *handoff.Manifest) {
	t.Helper()
	gotB, gotMeta := foldStream(t, got, gotM)
	wantB, wantMeta := foldStream(t, want, wantM)
	if len(gotB) != len(wantB) {
		t.Fatalf("stream carries %d blocks, one-shot replay %d", len(gotB), len(wantB))
	}
	for blk, data := range wantB {
		gd, ok := gotB[blk]
		if !ok {
			t.Fatalf("block %d missing from stream", blk)
		}
		if string(gd) != string(data) {
			t.Fatalf("block %d differs between stream and one-shot replay", blk)
		}
		if gotMeta[blk] != wantMeta[blk] {
			t.Fatalf("block %d meta flag differs", blk)
		}
	}
	if !reflect.DeepEqual(gotM.FDs, wantM.FDs) || gotM.Clock != wantM.Clock {
		t.Fatalf("manifest (fds %v, clock %d), one-shot replay (fds %v, clock %d)",
			gotM.FDs, gotM.Clock, wantM.FDs, wantM.Clock)
	}
}

// TestReplayerStreamEquivalentToMonolithic drives the same recorded trace
// through (a) the one-shot Replay and (b) the incremental Replayer with a
// chunk emitted every batch, then checks the folded stream equals the
// one-chunk stream block for block.
func TestReplayerStreamEquivalentToMonolithic(t *testing.T) {
	recorded := recordedTrace(t, 400)

	mono, _, _ := freshShadow(t, 16384)
	monoRes, err := mono.Replay(ReplayInput{Ops: recorded, BaseFDs: map[fsapi.FD]uint32{}, StopOnDiscrepancy: true})
	if err != nil {
		t.Fatalf("monolithic Replay: %v", err)
	}

	s, _, _ := freshShadow(t, 16384)
	r := NewReplayer(s, ReplayerKey{}, true)
	if err := r.Seed(map[fsapi.FD]uint32{}, 0); err != nil {
		t.Fatal(err)
	}
	var chunks []*handoff.Chunk
	const batch = 64
	for i := 0; i < len(recorded); i += batch {
		end := i + batch
		if end > len(recorded) {
			end = len(recorded)
		}
		if err := r.Feed(recorded[i:end]); err != nil {
			t.Fatalf("Feed[%d:%d]: %v", i, end, err)
		}
		if c := r.EmitChunk(); c != nil {
			chunks = append(chunks, c)
		}
	}
	last, m, _, err := r.Finish(nil)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if last != nil {
		chunks = append(chunks, last)
	}
	if len(chunks) < 2 {
		t.Fatalf("stream produced %d chunks; want several for a meaningful test", len(chunks))
	}
	requireSameHandoff(t, chunks, monoRes.Chunks, m, monoRes.Manifest)
	if r.OpsReplayed() != monoRes.OpsReplayed {
		t.Errorf("replayer executed %d ops, monolithic %d", r.OpsReplayed(), monoRes.OpsReplayed)
	}
}

// TestReplayerWarmResumeReplaysOnlySuffix retains the replayer after a
// first recovery and verifies that a second recovery feeds only the new
// ops, while ResetStream makes the next stream carry the full overlay for
// the freshly rebooted base.
func TestReplayerWarmResumeReplaysOnlySuffix(t *testing.T) {
	recorded := recordedTrace(t, 300)
	first, rest := recorded[:250], recorded[250:]

	s, _, _ := freshShadow(t, 16384)
	r := NewReplayer(s, ReplayerKey{StableSeq: 0, DevGen: 1}, true)
	if err := r.Seed(map[fsapi.FD]uint32{}, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Feed(first); err != nil {
		t.Fatal(err)
	}
	c1, m1, _, err := r.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	foldStream(t, []*handoff.Chunk{c1}, m1)
	firstReplayed := r.OpsReplayed()
	if r.NextSeq() != 250 {
		t.Fatalf("NextSeq = %d after first recovery, want 250", r.NextSeq())
	}

	// Second fault: only the suffix is fed. The stream restarts at chunk 0
	// carrying the whole overlay (the new base absorbed nothing yet).
	r.ResetStream()
	if err := r.Feed(rest); err != nil {
		t.Fatal(err)
	}
	c2, m2, _, err := r.Finish(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c2 == nil || c2.Index != 0 {
		t.Fatal("warm stream did not restart at chunk 0")
	}
	suffixReplayed := r.OpsReplayed() - firstReplayed
	if suffixReplayed > len(rest) {
		t.Errorf("warm resume replayed %d ops, gap suffix is only %d", suffixReplayed, len(rest))
	}

	// The warm result must equal a cold replay of the entire gap.
	cold, _, _ := freshShadow(t, 16384)
	coldRes, err := cold.Replay(ReplayInput{Ops: recorded, BaseFDs: map[fsapi.FD]uint32{}, StopOnDiscrepancy: true})
	if err != nil {
		t.Fatal(err)
	}
	requireSameHandoff(t, []*handoff.Chunk{c2}, coldRes.Chunks, m2, coldRes.Manifest)
}

// TestReplayerMarkConsumed pins the resume-path bookkeeping: an appended
// in-flight op's seq is covered without replaying.
func TestReplayerMarkConsumed(t *testing.T) {
	s, _, _ := freshShadow(t, 4096)
	r := NewReplayer(s, ReplayerKey{}, false)
	if err := r.Seed(map[fsapi.FD]uint32{}, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Feed([]*oplog.Op{{Kind: oplog.KCreate, Path: "/a", Perm: 0o644, RetIno: 2, Seq: 5}}); err != nil {
		t.Fatal(err)
	}
	if r.NextSeq() != 6 {
		t.Fatalf("NextSeq = %d, want 6", r.NextSeq())
	}
	r.MarkConsumed(7)
	if r.NextSeq() != 7 {
		t.Fatalf("NextSeq = %d after MarkConsumed, want 7", r.NextSeq())
	}
	r.MarkConsumed(3) // never goes backwards
	if r.NextSeq() != 7 {
		t.Fatalf("NextSeq = %d after stale MarkConsumed, want 7", r.NextSeq())
	}
}
