// Package bench is the experiment harness: it holds a registry with one
// entry per table and figure of the paper's evaluation (Section V plus the
// technical-report appendix), regenerates each one as a parameter sweep over
// the six approaches, and renders score/time tables mirroring the paper's
// (a)/(b) subfigures.
package bench

import (
	"fmt"
	"time"

	"dasc/internal/core"
	"dasc/internal/gen"
	"dasc/internal/model"
	"dasc/internal/sim"
)

// WorkloadKind selects the dataset family.
type WorkloadKind int

const (
	// Synthetic is the Table V generator.
	Synthetic WorkloadKind = iota
	// Meetup is the Table IV real-data substitute.
	Meetup
)

// Workload is a fully specified dataset configuration plus the platform
// parameters under which it is executed.
type Workload struct {
	Kind WorkloadKind
	Syn  gen.SyntheticConfig
	Meet gen.MeetupConfig
	// BatchInterval for the platform loop; zero = 5.
	BatchInterval float64
	// StaticBatch runs the allocator once over the whole instance instead
	// of simulating batches — the paper's small-scale Table VI setting.
	StaticBatch bool
	// WeightedScore reports the weighted objective Σ w_t instead of the
	// pair count — the weighted-extension experiments use it.
	WeightedScore bool
	// Online replaces the batch loop with the per-arrival online regime
	// (sim.RunOnline); the allocator is ignored there — the online rule is
	// fixed — but its wall time still measures the run.
	Online bool
}

// DefaultSyntheticWorkload wraps Table V's bold defaults.
func DefaultSyntheticWorkload() Workload {
	return Workload{Kind: Synthetic, Syn: gen.DefaultSynthetic()}
}

// DefaultMeetupWorkload wraps Table IV's bold defaults. The batch interval
// is 1 time unit: Table IV's waiting times are only 3–5 units, so the
// paper's example interval of 5 would let most workers expire between
// batches.
func DefaultMeetupWorkload() Workload {
	return Workload{Kind: Meetup, Meet: gen.DefaultMeetup(), BatchInterval: 1}
}

// Generate materialises the workload's instance at the given scale and seed.
func (w Workload) Generate(scale float64, seed int64) (*model.Instance, error) {
	switch w.Kind {
	case Synthetic:
		c := w.Syn.Scale(scale)
		c.Seed = seed
		return gen.Synthetic(c)
	case Meetup:
		c := w.Meet.Scale(scale)
		c.Seed = seed
		return gen.Meetup(c)
	default:
		return nil, fmt.Errorf("bench: unknown workload kind %d", w.Kind)
	}
}

// timedAllocator wraps an allocator and accumulates the wall-clock time
// spent inside Assign — the paper's "running time" measures the algorithm,
// not the surrounding simulation bookkeeping.
type timedAllocator struct {
	inner   core.Allocator
	elapsed time.Duration
}

func (t *timedAllocator) Name() string { return t.inner.Name() }

func (t *timedAllocator) DependencyAware() bool { return t.inner.DependencyAware() }

func (t *timedAllocator) Assign(b *core.Batch) *model.Assignment {
	start := time.Now()
	a := t.inner.Assign(b)
	t.elapsed += time.Since(start)
	return a
}

// Execute runs one allocator over the workload's instance and returns the
// total score (pair count, or Σ w_t with WeightedScore) and the
// allocator-only wall time in milliseconds.
func (w Workload) Execute(in *model.Instance, alloc core.Allocator) (score float64, timeMS float64, err error) {
	ta := &timedAllocator{inner: alloc}
	if w.StaticBatch {
		b := core.NewStaticBatch(in)
		a := ta.Assign(b)
		// Baselines return raw assignments; only the dependency-consistent
		// subset scores (the paper's "valid worker-and-task pairs").
		valid := core.DependencyFixpoint(b, a)
		score = float64(valid.Size())
		if w.WeightedScore {
			score = valid.WeightSum(in)
		}
		return score, float64(ta.elapsed) / float64(time.Millisecond), nil
	}
	var res *sim.Result
	if w.Online {
		start := time.Now()
		res, err = sim.RunOnline(in, sim.Config{Allocator: ta.inner})
		ta.elapsed += time.Since(start)
	} else {
		var p *sim.Platform
		p, err = sim.New(in, sim.Config{
			Allocator:     ta,
			BatchInterval: w.BatchInterval,
		})
		if err != nil {
			return 0, 0, err
		}
		res, err = p.Run()
	}
	if err != nil {
		return 0, 0, err
	}
	score = float64(res.AssignedPairs)
	if w.WeightedScore {
		score = res.AssignedWeight
	}
	return score, float64(ta.elapsed) / float64(time.Millisecond), nil
}
