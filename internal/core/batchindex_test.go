package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dasc/internal/geo"
	"dasc/internal/model"
)

// metricsUnderTest pairs every distance function the engine must handle with
// a label: the Euclidean-boundable trio exercises the spatial-grid path, the
// rest the skill-bucket fallback.
func metricsUnderTest() []struct {
	name string
	dist geo.DistanceFunc
} {
	scaled := func(a, b geo.Point) float64 { return 3 * geo.Euclidean(a, b) }
	return []struct {
		name string
		dist geo.DistanceFunc
	}{
		{"nil(Euclidean)", nil},
		{"Euclidean", geo.Euclidean},
		{"Manhattan", geo.Manhattan},
		{"Chebyshev", geo.Chebyshev},
		{"Haversine", geo.Haversine},
		{"custom", scaled},
	}
}

// midSimBatch perturbs every worker into a mid-simulation state: moved
// location, later readiness, partially spent distance budget.
func midSimBatch(in *model.Instance, rng *rand.Rand) *Batch {
	var bws []BatchWorker
	for i := range in.Workers {
		w := &in.Workers[i]
		bws = append(bws, BatchWorker{
			W:          w,
			Loc:        geo.Pt(rng.Float64(), rng.Float64()),
			ReadyAt:    w.Start + rng.Float64()*5,
			DistBudget: w.MaxDist * rng.Float64(),
		})
	}
	var tasks []*model.Task
	for i := range in.Tasks {
		tasks = append(tasks, &in.Tasks[i])
	}
	return NewBatch(in, bws, tasks, nil)
}

// TestBatchIndexMatchesScan is the differential cross-check of the
// acceptance criteria: for seeded random instances, every distance metric,
// and both static and mid-simulation worker states, the indexed strategy
// sets and candidate lists must equal the brute-force scans exactly.
func TestBatchIndexMatchesScan(t *testing.T) {
	for _, m := range metricsUnderTest() {
		t.Run(m.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(404))
			// Trials 8 and 9 put every task on one vertical, then one
			// horizontal line: the pending box is flat in one axis.
			for trial := 0; trial < 10; trial++ {
				in := randomInstance(rng, 10+rng.Intn(30), 10+rng.Intn(40), 5, true)
				in.Dist = m.dist
				for i := range in.Tasks {
					switch trial {
					case 8:
						in.Tasks[i].Loc.X = 0.5
					case 9:
						in.Tasks[i].Loc.Y = 0.5
					}
				}
				for _, b := range []*Batch{NewStaticBatch(in), midSimBatch(in, rng)} {
					sets := b.StrategySets()
					want := b.ScanStrategySets()
					if !reflect.DeepEqual(sets, want) {
						t.Fatalf("trial %d: strategy sets diverge\nindex: %v\nscan:  %v", trial, sets, want)
					}
					for _, task := range b.Tasks {
						got := b.CandidateWorkers(task)
						wantC := b.ScanCandidateWorkers(task)
						if !reflect.DeepEqual(got, wantC) {
							t.Fatalf("trial %d task %d: candidates %v, scan %v", trial, task.ID, got, wantC)
						}
					}
				}
			}
		})
	}
}

// TestBatchIndexParallelDeterministic forces the concurrent build (large
// worker pool, several goroutines) and checks it against the serial build —
// the output must be bit-identical regardless of scheduling.
func TestBatchIndexParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	in := randomInstance(rng, 3*minParallelWorkers, 120, 6, true)
	for _, procs := range []int{2, 4, 8} {
		serial := newBatchIndexN(NewStaticBatch(in), 1)
		parallel := newBatchIndexN(NewStaticBatch(in), procs)
		if !reflect.DeepEqual(serial.strategies, parallel.strategies) {
			t.Fatalf("procs=%d: strategy sets differ from serial build", procs)
		}
		if !reflect.DeepEqual(serial.costs, parallel.costs) {
			t.Fatalf("procs=%d: travel-cost memos differ from serial build", procs)
		}
		if !reflect.DeepEqual(serial.candidates, parallel.candidates) {
			t.Fatalf("procs=%d: candidate lists differ from serial build", procs)
		}
	}
}

// TestVerifyIndexCatchesCorruption: VerifyIndex passes a built index and
// rejects each of three single corruptions of it — one feasible pair dropped
// from a strategy set, one memoized cost perturbed, one candidate dropped —
// naming the part that diverges.
func TestVerifyIndexCatchesCorruption(t *testing.T) {
	in := randomInstance(rand.New(rand.NewSource(407)), 30, 40, 4, true)
	batch := func() (*Batch, *BatchIndex) {
		b := NewStaticBatch(in)
		return b, b.Index()
	}
	if b, _ := batch(); b.VerifyIndex() != nil {
		t.Fatalf("intact index rejected: %v", b.VerifyIndex())
	}
	// The corruptions target the first worker with a feasible pair and its
	// first task, so each leaves the rest of the index intact.
	_, idx := batch()
	wi := slices.IndexFunc(idx.strategies, func(set []int32) bool { return len(set) > 0 })
	if wi < 0 {
		t.Fatal("degenerate instance: no feasible pairs")
	}
	ti := int(idx.strategies[wi][0])
	for _, c := range []struct {
		name, want string
		corrupt    func(idx *BatchIndex)
	}{
		{"dropped pair", "strategy set", func(idx *BatchIndex) {
			idx.strategies[wi] = idx.strategies[wi][1:]
			idx.costs[wi] = idx.costs[wi][1:]
		}},
		{"perturbed cost", "travel-cost memo", func(idx *BatchIndex) {
			costs := slices.Clone(idx.costs[wi])
			costs[0] = math.Nextafter(costs[0], math.Inf(1))
			idx.costs[wi] = costs
		}},
		{"dropped candidate", "candidate list", func(idx *BatchIndex) {
			idx.candidates[ti] = idx.candidates[ti][1:]
		}},
	} {
		b, idx := batch()
		c.corrupt(idx)
		if err := b.VerifyIndex(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: VerifyIndex = %v, want a %s divergence", c.name, err, c.want)
		}
	}
}

// TestBatchIndexTravelCostMemo checks the memoized travel times against
// direct computation for feasible pairs, and the fallback for infeasible
// ones.
func TestBatchIndexTravelCostMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	in := randomInstance(rng, 15, 20, 4, false)
	b := NewStaticBatch(in)
	idx := b.Index()
	for wi := range b.Workers {
		for ti := range b.Tasks {
			got := idx.TravelCost(wi, ti)
			want := b.TravelCost(wi, b.Tasks[ti])
			if got != want {
				t.Fatalf("TravelCost(%d,%d) = %v, direct %v", wi, ti, got, want)
			}
		}
	}
	if idx.FeasiblePairs() == 0 {
		t.Fatal("degenerate instance: no feasible pairs to memoize")
	}
}

// TestBatchIndexEmpty covers the no-worker / no-task corners.
func TestBatchIndexEmpty(t *testing.T) {
	in := model.Example1()
	bNoTasks := NewBatch(in, NewStaticBatch(in).Workers, nil, nil)
	if got := bNoTasks.StrategySets(); len(got) != len(in.Workers) {
		t.Fatalf("no-task strategy sets: %v", got)
	}
	bNoWorkers := NewBatch(in, nil, []*model.Task{&in.Tasks[0]}, nil)
	if got := bNoWorkers.CandidateWorkers(&in.Tasks[0]); got != nil {
		t.Fatalf("no-worker candidates: %v", got)
	}
}

// TestCandidateWorkersOffBatchFallback: a task not pending in the batch must
// still get a (scan-computed) answer, matching the pre-index behaviour.
func TestCandidateWorkersOffBatchFallback(t *testing.T) {
	in := model.Example1()
	b := NewBatch(in, NewStaticBatch(in).Workers, []*model.Task{&in.Tasks[0]}, nil)
	off := &in.Tasks[3] // pending set contains only t1
	if got, want := b.CandidateWorkers(off), b.ScanCandidateWorkers(off); !reflect.DeepEqual(got, want) {
		t.Fatalf("off-batch candidates %v, scan %v", got, want)
	}
}

// TestAtSetsDedupDuplicateDeps: a task listing the same dependency twice
// must produce an associative set with unique members and an uninflated
// weight, and Greedy's staffing must succeed with exactly one worker per
// distinct task.
func TestAtSetsDedupDuplicateDeps(t *testing.T) {
	in := &model.Instance{
		Workers: []model.Worker{
			{ID: 0, Loc: geo.Pt(0, 0), Start: 0, Wait: 100, Velocity: 1, MaxDist: 10, Skills: model.NewSkillSet(0)},
			{ID: 1, Loc: geo.Pt(1, 0), Start: 0, Wait: 100, Velocity: 1, MaxDist: 10, Skills: model.NewSkillSet(0)},
		},
		Tasks: []model.Task{
			{ID: 0, Loc: geo.Pt(0, 1), Start: 0, Wait: 100, Requires: 0},
			// Duplicate dependency: bypasses Validate (hand-built instance).
			{ID: 1, Loc: geo.Pt(1, 1), Start: 0, Wait: 100, Requires: 0, Deps: []model.TaskID{0, 0}},
		},
	}
	b := NewStaticBatch(in)
	sets := atSets(b)
	if len(sets) != 2 {
		t.Fatalf("got %d sets, want 2", len(sets))
	}
	for _, s := range sets {
		if b.Tasks[s.anchor].ID != 1 {
			continue
		}
		if len(s.members) != 2 || s.alive != 2 || s.weight != 2 {
			t.Fatalf("anchor t1 set not deduped: members=%v alive=%d weight=%v",
				s.members, s.alive, s.weight)
		}
		// The deduped set must be staffable by the two workers.
		g := NewGreedy()
		candidates := make([][]int32, len(b.Tasks))
		for ti := range b.Tasks {
			candidates[ti] = b.Index().CandidateSet(ti)
		}
		free := []bool{true, true}
		staff, ok := g.staff(b, s.members, candidates, free, newColScratch(len(b.Workers)))
		if !ok || len(staff) != 2 || staff[0] == staff[1] {
			t.Fatalf("staffing deduped set failed: staff=%v ok=%v", staff, ok)
		}
	}
	// End to end: both tasks assigned in one static batch.
	a := NewGreedy().Assign(b)
	if a.Size() != 2 {
		t.Fatalf("greedy assigned %d pairs, want 2: %+v", a.Size(), a.Pairs)
	}
}

// TestGameStateDedupDuplicateDeps: the game's dependency wiring must also
// collapse duplicate entries — |D_t| and the dependant lists are set-valued.
func TestGameStateDedupDuplicateDeps(t *testing.T) {
	in := &model.Instance{
		Workers: []model.Worker{
			{ID: 0, Loc: geo.Pt(0, 0), Start: 0, Wait: 100, Velocity: 1, MaxDist: 10, Skills: model.NewSkillSet(0)},
		},
		Tasks: []model.Task{
			{ID: 0, Loc: geo.Pt(0, 1), Start: 0, Wait: 100, Requires: 0},
			{ID: 1, Loc: geo.Pt(1, 1), Start: 0, Wait: 100, Requires: 0, Deps: []model.TaskID{0, 0}},
		},
	}
	gs := newGameState(NewStaticBatch(in), 10)
	if gs.depCount[1] != 1 {
		t.Errorf("depCount = %d, want 1", gs.depCount[1])
	}
	if len(gs.deps(1)) != 1 {
		t.Errorf("deps = %v, want one entry", gs.deps(1))
	}
	if len(gs.dependants(0)) != 1 {
		t.Errorf("dependants = %v, want one entry", gs.dependants(0))
	}
}
