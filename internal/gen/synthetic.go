package gen

import (
	"fmt"
	"math/rand"
	"sort"

	"dasc/internal/geo"
	"dasc/internal/model"
)

// SyntheticConfig holds the Table V parameters. The zero value is unusable;
// start from DefaultSynthetic() (the table's bold defaults) and override.
type SyntheticConfig struct {
	Seed int64

	Workers       int // n, paper default 5K
	Tasks         int // m, paper default 5K
	SkillUniverse int // r, paper default 1500

	// DepSize is the per-task dependency-set size range, default [0, 70].
	DepSize Range
	// WorkerSkills is the per-worker skill-set size range, default [1, 15].
	WorkerSkills Range
	// StartTime applies to workers and tasks alike, default [0, 75].
	StartTime Range
	// WaitTime applies to workers and tasks alike, default [10, 15].
	WaitTime Range
	// Velocity is the worker speed range, default [0.03, 0.04]
	// (Table V's [3, 4] × 0.01).
	Velocity Range
	// MaxDist is the worker moving-budget range, default [0.3, 0.4]
	// (Table V's [3, 4] × 0.1).
	MaxDist Range

	// Region is the location space, default the paper's [0, 0.5]².
	Region geo.BBox

	// ZipfSkills switches skill popularity from uniform (the paper's
	// setting) to a Zipf distribution with this exponent s > 1: a few
	// skills dominate both worker abilities and task requirements, as real
	// tag data does. Zero keeps the uniform model.
	ZipfSkills float64

	// TaskWeight draws each task's objective weight uniformly from this
	// range; the zero value (or any range within [0,1]×{1}) leaves weights
	// at the paper's unit default. Used by the weighted-objective extension.
	TaskWeight Range

	// Hotspots switches the location model from the paper's uniform
	// distribution to a Gaussian-mixture "city" model with this many
	// hotspot centres (0 = uniform, the paper's setting). Real deployments
	// cluster around districts; the ablation-spatial experiment measures
	// how much that clustering changes the picture.
	Hotspots int
	// HotspotSpread is the per-axis standard deviation around a hotspot as
	// a fraction of the region diagonal; zero means 0.05.
	HotspotSpread float64
}

// DefaultSynthetic returns Table V's bold default configuration.
func DefaultSynthetic() SyntheticConfig {
	return SyntheticConfig{
		Seed:          1,
		Workers:       5000,
		Tasks:         5000,
		SkillUniverse: 1500,
		DepSize:       R(0, 70),
		WorkerSkills:  R(1, 15),
		StartTime:     R(0, 75),
		WaitTime:      R(10, 15),
		Velocity:      R(3, 4).Scale(0.01),
		MaxDist:       R(3, 4).Scale(0.1),
		Region:        geo.UnitHalf,
	}
}

// SmallScale returns the Table VI configuration: 20 workers, 40 tasks,
// skill universe 10, worker skills [1, 3], dependency size [0, 8].
//
// The temporal window is compacted relative to Table V's bold defaults
// (start [0, 20] instead of [0, 75]; wait [20, 30] instead of [10, 15]):
// Table VI evaluates one *static* batch, and under the wide window almost no
// worker-task pair is temporally feasible, while the paper reports an
// optimum of 17 assignments out of 20 workers — a density only a compact
// window reproduces.
func SmallScale() SyntheticConfig {
	c := DefaultSynthetic()
	c.Workers = 20
	c.Tasks = 40
	c.SkillUniverse = 10
	c.WorkerSkills = R(1, 3)
	c.DepSize = R(0, 8)
	c.StartTime = R(0, 20)
	c.WaitTime = R(20, 30)
	return c
}

// Scale shrinks the instance by factor f (0 < f ≤ 1) while preserving the
// ratios that shape the allocation problem: the worker and task counts, the
// skill universe (keeping workers-per-skill constant) and the
// dependency-size upper bound (keeping the dependency fraction of the task
// pool constant) all scale together. The benchmark harness uses it to run
// the paper's sweeps at laptop scale without degenerating the workload.
func (c SyntheticConfig) Scale(f float64) SyntheticConfig {
	if f > 0 && f < 1 {
		c.Workers = max1(int(float64(c.Workers) * f))
		c.Tasks = max1(int(float64(c.Tasks) * f))
		c.SkillUniverse = max1(int(float64(c.SkillUniverse) * f))
		c.DepSize.Hi = float64(int(c.DepSize.Hi * f))
		if c.DepSize.Hi < c.DepSize.Lo {
			c.DepSize.Hi = c.DepSize.Lo
		}
	}
	return c
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// Validate reports configuration errors before generation.
func (c SyntheticConfig) Validate() error {
	switch {
	case c.Workers < 0 || c.Tasks < 0:
		return fmt.Errorf("gen: negative population (%d workers, %d tasks)", c.Workers, c.Tasks)
	case c.SkillUniverse < 1:
		return fmt.Errorf("gen: skill universe %d < 1", c.SkillUniverse)
	case c.WorkerSkills.Lo < 1:
		return fmt.Errorf("gen: worker skill range %v must start at ≥ 1", c.WorkerSkills)
	case c.DepSize.Lo < 0:
		return fmt.Errorf("gen: dependency size range %v negative", c.DepSize)
	case c.Velocity.Lo < 0 || c.MaxDist.Lo < 0 || c.WaitTime.Lo < 0 || c.StartTime.Lo < 0:
		return fmt.Errorf("gen: negative temporal/spatial range")
	case c.ZipfSkills != 0 && c.ZipfSkills <= 1:
		return fmt.Errorf("gen: Zipf exponent %v must be > 1 (or 0 for uniform)", c.ZipfSkills)
	case c.ZipfSkills > 1 && c.SkillUniverse < 2:
		return fmt.Errorf("gen: Zipf skills need a universe of at least 2")
	}
	return nil
}

// Synthetic generates an instance per Section V-A's synthetic procedure:
// uniform locations in the region, uniform parameter draws from every range,
// and dependency sets grown over earlier tasks with transitive closure.
func Synthetic(c SyntheticConfig) (*model.Instance, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	skillPick := func() model.Skill { return model.Skill(rng.Intn(c.SkillUniverse)) }
	if c.ZipfSkills > 1 {
		z := rand.NewZipf(rng, c.ZipfSkills, 1, uint64(c.SkillUniverse-1))
		skillPick = func() model.Skill { return model.Skill(z.Uint64()) }
	}
	// Weights come from an independent stream so that enabling the weighted
	// extension leaves the instance structurally identical — a weighted
	// sweep then isolates the objective change from generator noise.
	weightRng := rand.New(rand.NewSource(c.Seed ^ 0x5eed4a11))
	in := &model.Instance{SkillUniverse: c.SkillUniverse}
	sample := c.locationSampler(rng)

	for i := 0; i < c.Workers; i++ {
		nSkills := c.WorkerSkills.SampleInt(rng)
		if nSkills < 1 {
			nSkills = 1
		}
		if nSkills > c.SkillUniverse {
			nSkills = c.SkillUniverse
		}
		var skills model.SkillSet
		for skills.Len() < nSkills {
			skills.Add(skillPick())
		}
		in.Workers = append(in.Workers, model.Worker{
			ID:       model.WorkerID(i),
			Loc:      sample(),
			Start:    c.StartTime.Sample(rng),
			Wait:     c.WaitTime.Sample(rng),
			Velocity: c.Velocity.Sample(rng),
			MaxDist:  c.MaxDist.Sample(rng),
			Skills:   skills,
		})
	}

	// Task IDs follow creation order, and a task is created when it appears
	// on the platform: draw the start times up front and assign them in
	// ascending order, so dependencies (which point at earlier IDs) always
	// appear before their dependants.
	starts := sortedSamples(rng, c.StartTime, c.Tasks)
	candidates := make([]model.TaskID, 0, c.Tasks)
	deps := newDepGrower(rng, c.Tasks)
	for i := 0; i < c.Tasks; i++ {
		t := model.Task{
			ID:       model.TaskID(i),
			Loc:      sample(),
			Start:    starts[i],
			Wait:     c.WaitTime.Sample(rng),
			Requires: skillPick(),
		}
		if c.TaskWeight.Hi > 1 || (c.TaskWeight.Lo > 0 && c.TaskWeight.Lo != 1) {
			t.Weight = c.TaskWeight.Sample(weightRng)
		}
		t.Deps = deps.grow(in.Tasks, candidates, c.DepSize)
		in.Tasks = append(in.Tasks, t)
		candidates = append(candidates, t.ID)
	}

	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated instance invalid: %w", err)
	}
	return in, nil
}

// locationSampler returns the point generator for the configured spatial
// model: uniform over the region (the paper's synthetic setting) or a
// Gaussian mixture around Hotspots uniformly placed centres, clamped to the
// region.
func (c SyntheticConfig) locationSampler(rng *rand.Rand) func() geo.Point {
	if c.Hotspots <= 0 {
		return func() geo.Point { return randPoint(rng, c.Region) }
	}
	spread := c.HotspotSpread
	if spread <= 0 {
		spread = 0.05
	}
	sigma := spread * c.Region.Diagonal()
	centers := make([]geo.Point, c.Hotspots)
	for i := range centers {
		centers[i] = randPoint(rng, c.Region)
	}
	clamp := func(v, lo, hi float64) float64 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	return func() geo.Point {
		cen := centers[rng.Intn(len(centers))]
		return geo.Pt(
			clamp(cen.X+rng.NormFloat64()*sigma, c.Region.Min.X, c.Region.Max.X),
			clamp(cen.Y+rng.NormFloat64()*sigma, c.Region.Min.Y, c.Region.Max.Y),
		)
	}
}

// sortedSamples draws n values from r and returns them ascending.
func sortedSamples(rng *rand.Rand, r Range, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Sample(rng)
	}
	sort.Float64s(out)
	return out
}

func randPoint(rng *rand.Rand, box geo.BBox) geo.Point {
	return geo.Pt(
		box.Min.X+rng.Float64()*box.Width(),
		box.Min.Y+rng.Float64()*box.Height(),
	)
}
