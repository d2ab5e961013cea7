// Package dasc is a Go implementation of dependency-aware spatial
// crowdsourcing (DA-SC) task allocation, reproducing "Task Allocation in
// Dependency-aware Spatial Crowdsourcing" (Ni, Cheng, Chen, Lin — ICDE
// 2020).
//
// Workers physically move to task locations; a task needs one worker holding
// its required skill, reachable before its deadline and within the worker's
// moving budget, and may only be conducted once the tasks it depends on have
// been assigned. The platform allocates batch-by-batch, maximising the
// number of valid worker-and-task pairs — an NP-hard objective — using the
// paper's two approximation algorithms:
//
//   - Greedy (DASC_Greedy): commits the largest fully-staffable associative
//     task set per round; (1 − 1/e)-approximate per batch.
//   - Game (DASC_Game): best-response dynamics over an exact potential game,
//     with optional early termination (Game-5%) and greedy initialisation
//     (G-G).
//
// Quickstart:
//
//	in := dasc.Example1()                  // the paper's motivating example
//	m := dasc.Assign(in, dasc.NewGreedy()) // one-shot allocation
//	fmt.Println(m.Size(), m)               // 3 valid pairs
//
// For time-evolving scenarios use Simulate, which runs the paper's batch
// loop (arrivals, travel, worker reuse, expiry); for custom workloads use
// the GenerateSynthetic/GenerateMeetup generators or build an Instance by
// hand and Validate it.
package dasc

import (
	"io"

	"dasc/internal/core"
	"dasc/internal/dataset"
	"dasc/internal/gen"
	"dasc/internal/geo"
	"dasc/internal/model"
	"dasc/internal/roadnet"
	"dasc/internal/sim"
)

// Domain types, re-exported from the internal model.
type (
	// Point is a planar location.
	Point = geo.Point
	// BBox is an axis-aligned region.
	BBox = geo.BBox
	// DistanceFunc measures travel distance between two locations.
	DistanceFunc = geo.DistanceFunc
	// Skill identifies one ability ψ in the skill universe.
	Skill = model.Skill
	// SkillSet is a set of skills.
	SkillSet = model.SkillSet
	// WorkerID identifies a worker.
	WorkerID = model.WorkerID
	// TaskID identifies a task.
	TaskID = model.TaskID
	// Worker is a heterogeneous worker (Definition 1).
	Worker = model.Worker
	// Task is a dependency-aware spatial task (Definition 2).
	Task = model.Task
	// Instance is a worker set plus a task set.
	Instance = model.Instance
	// Assignment is a set of worker-and-task pairs.
	Assignment = model.Assignment
	// Pair is one matched worker-and-task pair.
	Pair = model.Pair
)

// Allocation machinery, re-exported from the internal core.
type (
	// Allocator assigns one batch's workers to its tasks and reports, through
	// DependencyAware, whether it honours the dependency constraint; the
	// batch loop stops offering such an allocator the tasks that can never
	// be validly assigned.
	Allocator = core.Allocator
	// Batch is the input of one batch process.
	Batch = core.Batch
	// BatchWorker is a worker's state at the start of a batch.
	BatchWorker = core.BatchWorker
	// GameOptions configures the game-theoretic allocator.
	GameOptions = core.GameOptions
	// GreedyOptions configures the greedy allocator.
	GreedyOptions = core.GreedyOptions
	// DFSOptions configures the exact search.
	DFSOptions = core.DFSOptions
	// EquilibriumQuality summarises sampled Nash-equilibrium quality
	// against the exact optimum (Theorem IV.2's PoS/PoA, empirically).
	EquilibriumQuality = core.EquilibriumQuality
)

// Simulation types, re-exported from the internal simulator.
type (
	// SimConfig parameterises a batch-loop simulation.
	SimConfig = sim.Config
	// SimResult aggregates a simulation run.
	SimResult = sim.Result
	// SimBatchResult reports one batch of a simulation.
	SimBatchResult = sim.BatchResult
)

// Generator configurations, re-exported from the internal generators.
type (
	// SyntheticConfig holds the paper's Table V parameters.
	SyntheticConfig = gen.SyntheticConfig
	// MeetupConfig holds the paper's Table IV parameters over the
	// Meetup-substitute generator.
	MeetupConfig = gen.MeetupConfig
	// Range is a uniform [lo, hi] parameter interval.
	Range = gen.Range
)

// Distance functions.
var (
	// Euclidean is the paper's default metric.
	Euclidean = geo.Euclidean
	// Manhattan is the L1 metric.
	Manhattan = geo.Manhattan
	// Haversine treats coordinates as lon/lat degrees and returns km.
	Haversine = geo.Haversine
)

// Road-network distance substrate (the paper's "other distance functions,
// e.g. road-network distance").
type (
	// RoadNetwork is a road graph with snapping and shortest-path caching;
	// its DistanceFunc plugs into Instance.Dist.
	RoadNetwork = roadnet.Network
	// RoadGraph is the underlying weighted road graph.
	RoadGraph = roadnet.Graph
	// RoadGridConfig parameterises the synthetic road-network generator.
	RoadGridConfig = roadnet.GridNetworkConfig
)

// DefaultRoadGrid returns a city-like synthetic road network configuration
// over the box.
func DefaultRoadGrid(box BBox) RoadGridConfig { return roadnet.DefaultGrid(box) }

// GenerateRoadGrid builds a connected synthetic road network.
func GenerateRoadGrid(c RoadGridConfig) (*RoadNetwork, error) { return roadnet.GenerateGrid(c) }

// Pt constructs a Point.
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// NewSkillSet builds a skill set from its members.
func NewSkillSet(skills ...Skill) SkillSet { return model.NewSkillSet(skills...) }

// SkillNames maps human-readable skill names to dense Skill IDs and back.
type SkillNames = model.SkillNames

// NewSkillNames returns an empty skill-name registry.
func NewSkillNames() *SkillNames { return model.NewSkillNames() }

// Example1 returns the paper's motivating example (Figure 1, Tables I–II):
// 3 workers, 5 tasks, dependencies t2→t1, t3→{t1,t2}, t5→t4.
func Example1() *Instance { return model.Example1() }

// NewGreedy returns the DASC_Greedy allocator (Algorithm 1).
func NewGreedy() Allocator { return core.NewGreedy() }

// NewGreedyOpt returns DASC_Greedy with explicit options.
func NewGreedyOpt(opt GreedyOptions) Allocator { return core.NewGreedyOpt(opt) }

// NewGame returns the DASC_Game allocator (Algorithm 3). Zero options give
// the strict-equilibrium Game; set Threshold: 0.05 for Game-5% or
// GreedyInit: true for G-G.
func NewGame(opt GameOptions) Allocator { return core.NewGame(opt) }

// NewClosest returns the nearest-feasible-task baseline.
func NewClosest() Allocator { return core.NewClosest() }

// NewRandom returns the random-feasible-task baseline.
func NewRandom(seed int64) Allocator { return core.NewRandom(seed) }

// NewDFS returns the exact branch-and-bound allocator for small instances.
func NewDFS(opt DFSOptions) Allocator { return core.NewDFS(opt) }

// NewImproved wraps an allocator with the matching-augmentation post-pass:
// after the inner allocator runs, eligible unassigned tasks are adopted by
// re-matching the whole staffing, so a stranded worker can be reshuffled to
// make room. The result is never smaller than the inner allocator's.
func NewImproved(inner Allocator) Allocator { return core.NewImproved(inner) }

// NewAllocator builds an allocator from its paper label: "Greedy", "Game",
// "Game-5%", "G-G", "Closest", "Random" or "DFS".
func NewAllocator(name string, seed int64) (Allocator, error) {
	return core.NewByName(name, seed)
}

// AllocatorNames lists the six approaches compared in the paper's
// evaluation, in plotting order.
func AllocatorNames() []string { return core.AllNames() }

// Assign runs one allocator over the whole instance as a single static
// batch — every worker at its declared location with its full budget — and
// returns a dependency-consistent assignment. Allocators that ignore
// dependencies (Closest, Random) have their invalid pairs filtered out here;
// use Allocator.Assign directly for the raw result.
func Assign(in *Instance, alloc Allocator) *Assignment {
	b := core.NewStaticBatch(in)
	return core.DependencyFixpoint(b, alloc.Assign(b))
}

// MeasureEquilibriumQuality runs the game-theoretic allocator from several
// random initialisations over the instance (as a single static batch) and
// compares the resulting equilibria against the exact optimum — the
// empirical counterpart of the paper's price-of-stability / price-of-anarchy
// analysis. Intended for small instances; cap dfsOpt.MaxNodes for larger
// ones.
func MeasureEquilibriumQuality(in *Instance, opt GameOptions, dfsOpt DFSOptions, samples int, seedBase int64) EquilibriumQuality {
	return core.MeasureEquilibriumQuality(core.NewStaticBatch(in), opt, dfsOpt, samples, seedBase)
}

// Simulate runs the paper's batch loop over the instance: workers and tasks
// appear at their start times, every cfg.BatchInterval the allocator assigns
// the active workers to the pending tasks, assigned workers travel, conduct
// and become available again, and unassigned tasks expire at their
// deadlines.
func Simulate(in *Instance, cfg SimConfig) (*SimResult, error) {
	p, err := sim.New(in, cfg)
	if err != nil {
		return nil, err
	}
	return p.Run()
}

// SimulateOnline runs the instance in the online regime: every task arrival
// is matched immediately to the best available feasible worker (minimum
// travel time) once its dependencies are assigned, with no batch window.
// Comparing against Simulate measures what the paper's batching buys.
func SimulateOnline(in *Instance, cfg SimConfig) (*SimResult, error) {
	return sim.RunOnline(in, cfg)
}

// DefaultSynthetic returns Table V's bold default configuration.
func DefaultSynthetic() SyntheticConfig { return gen.DefaultSynthetic() }

// DefaultMeetup returns Table IV's bold defaults over the Meetup-substitute
// generator at the paper's Hong Kong extract size.
func DefaultMeetup() MeetupConfig { return gen.DefaultMeetup() }

// GenerateSynthetic builds a synthetic instance per Section V-A.
func GenerateSynthetic(c SyntheticConfig) (*Instance, error) { return gen.Synthetic(c) }

// GenerateMeetup builds a Meetup-substitute instance per Section V-A.
func GenerateMeetup(c MeetupConfig) (*Instance, error) { return gen.Meetup(c) }

// SaveInstance writes an instance as JSON.
func SaveInstance(path string, in *Instance) error { return dataset.Save(path, in) }

// LoadInstance reads and validates a JSON instance.
func LoadInstance(path string) (*Instance, error) { return dataset.Load(path) }

// WriteInstance serialises an instance as JSON to w.
func WriteInstance(w io.Writer, in *Instance) error { return dataset.Write(w, in) }

// ReadInstance deserialises and validates a JSON instance from r.
func ReadInstance(r io.Reader) (*Instance, error) { return dataset.Read(r) }
