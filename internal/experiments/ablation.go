package experiments

import (
	"time"

	"repro/internal/basefs"
	"repro/internal/workload"
)

// AblationResult is one row of the component-ablation table: the base
// filesystem with one performance component weakened, against the stock
// configuration. This quantifies the paper's architectural claim that the
// base's speed comes precisely from the machinery the shadow omits (§3.3):
// the dentry cache, the buffer cache, asynchronous IO width, and disabled
// runtime checks.
type AblationResult struct {
	Name      string
	Profile   workload.Profile
	OpsPerSec float64
	// SlowdownPct is relative to the stock base on the same trace.
	SlowdownPct float64
}

// ablations enumerates the weakened configurations.
func ablations() []struct {
	name string
	opts basefs.Options
} {
	return []struct {
		name string
		opts basefs.Options
	}{
		{"stock", basefs.Options{}},
		{"no-dentry-cache", basefs.Options{CacheDentries: 16}}, // floor size
		{"tiny-buffer-cache", basefs.Options{CacheBlocks: 8}},
		{"single-queue-worker", basefs.Options{QueueWorkers: 1, QueueDepth: 1}},
		{"extra-checks-on", basefs.Options{ExtraChecks: true}},
		{"all-weakened", basefs.Options{
			CacheDentries: 16, CacheBlocks: 8, QueueWorkers: 1, QueueDepth: 1, ExtraChecks: true,
		}},
	}
}

// Ablate measures every weakened configuration on one profile.
func Ablate(profile workload.Profile, numOps int, seed int64) ([]AblationResult, error) {
	trace := workload.Generate(workload.Config{
		Profile: profile, Seed: seed, NumOps: numOps, SyncEvery: 200,
	})
	var out []AblationResult
	var stock float64
	for _, ab := range ablations() {
		// Best of three timed runs after one warmup, each on a fresh image:
		// the fast profiles finish in milliseconds, where scheduler noise
		// would otherwise dominate the component effects.
		best := 0.0
		for round := 0; round < 4; round++ {
			dev, _, err := newImage(ImageBlocks)
			if err != nil {
				return nil, err
			}
			base, err := basefs.Mount(dev, ab.opts)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			applyTrace(base, trace)
			elapsed := time.Since(start)
			base.Kill()
			if round == 0 {
				continue // warmup
			}
			if ops := float64(len(trace)) / elapsed.Seconds(); ops > best {
				best = ops
			}
		}
		if ab.name == "stock" {
			stock = best
		}
		out = append(out, AblationResult{
			Name:        ab.name,
			Profile:     profile,
			OpsPerSec:   best,
			SlowdownPct: (stock - best) / stock * 100,
		})
	}
	return out, nil
}
