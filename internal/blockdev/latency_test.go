package blockdev

import (
	"testing"
	"time"

	"repro/internal/disklayout"
)

// TestQueueOverlapsDeviceLatency is the architectural point of the async
// block layer (blk-mq in Figure 2): with per-IO device latency, issuing N
// independent writes through the queue's workers takes ~N/workers service
// times, while the synchronous path pays all N serially.
func TestQueueOverlapsDeviceLatency(t *testing.T) {
	const n = 16
	const lat = 2 * time.Millisecond

	mkDev := func() *Mem {
		d := NewMem(64)
		p := NewFaultPlan(1)
		p.WriteLatency = lat
		d.SetFaults(p)
		return d
	}
	buf := make([]byte, disklayout.BlockSize)

	// Synchronous path: serial.
	dev := mkDev()
	start := time.Now()
	for i := uint32(0); i < n; i++ {
		if err := dev.WriteBlock(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	serial := time.Since(start)

	// Queued path: 8 workers overlap.
	dev2 := mkDev()
	q := NewQueue(dev2, 8, 32)
	defer q.Close()
	start = time.Now()
	var reqs []*Request
	for i := uint32(0); i < n; i++ {
		reqs = append(reqs, q.WriteVecAsync(i, [][]byte{buf}))
	}
	for _, r := range reqs {
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	overlapped := time.Since(start)

	if serial < n*lat {
		t.Fatalf("serial path too fast: %v", serial)
	}
	if overlapped*3 > serial {
		t.Errorf("queue did not overlap latency: serial %v, queued %v", serial, overlapped)
	}
}
