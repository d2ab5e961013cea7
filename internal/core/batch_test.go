package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dasc/internal/geo"
	"dasc/internal/model"
)

func TestStaticBatchWrapsInstance(t *testing.T) {
	in := model.Example1()
	b := NewStaticBatch(in)
	if len(b.Workers) != 3 || len(b.Tasks) != 5 {
		t.Fatalf("batch sizes %d/%d", len(b.Workers), len(b.Tasks))
	}
	for i, bw := range b.Workers {
		w := &in.Workers[i]
		if bw.Loc != w.Loc || bw.ReadyAt != w.Start || bw.DistBudget != w.MaxDist {
			t.Errorf("worker %d state not mirrored: %+v", i, bw)
		}
	}
	if b.TaskIndex(3) != 3 || b.TaskIndex(99) != -1 {
		t.Error("TaskIndex wrong")
	}
}

func TestBatchStrategySetsMatchCandidateIndex(t *testing.T) {
	// The batch's strategy sets must agree with the model-level candidate
	// index on a static batch.
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 10, 15, 4, true)
		b := NewStaticBatch(in)
		ci := model.NewCandidateIndex(in)
		sets := b.StrategySets()
		for wi := range b.Workers {
			var got []model.TaskID
			for _, ti := range sets[wi] {
				got = append(got, b.Tasks[ti].ID)
			}
			want := ci.TasksFor(&in.Workers[wi])
			if len(want) == 0 {
				want = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("worker %d: batch %v vs index %v", wi, got, want)
			}
		}
	}
}

func TestBatchCandidateWorkersSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	in := randomInstance(rng, 12, 12, 3, false)
	b := NewStaticBatch(in)
	sets := b.StrategySets()
	for ti, task := range b.Tasks {
		for _, wi := range b.CandidateWorkers(task) {
			found := false
			for _, t2 := range sets[wi] {
				if t2 == ti {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("asymmetry: worker %d candidates task %d but not vice versa", wi, ti)
			}
		}
	}
}

// TestDepSatisfiable checks the wiring's liveness precondition: a task is
// dead in the batch when a dependency is neither satisfied nor pending.
func TestDepSatisfiable(t *testing.T) {
	in := model.Example1()
	// Batch containing only t2 (depends on t1) and t4.
	b := NewBatch(in,
		[]BatchWorker{{W: &in.Workers[0], Loc: in.Workers[0].Loc, ReadyAt: 0, DistBudget: 1000}},
		[]*model.Task{&in.Tasks[1], &in.Tasks[3]},
		nil)
	if w := b.depWiring(); !w.deadTask[0] {
		t.Error("t2's dependency t1 is absent and unsatisfied")
	} else if w.deadTask[1] {
		t.Error("t4 has no deps")
	}
	var sat model.TaskFlags
	sat.Set(0)
	b2 := NewBatch(in, b.Workers, b.Tasks, sat)
	if b2.depWiring().deadTask[0] {
		t.Error("satisfied dependency not honoured")
	}
}

func TestTravelCost(t *testing.T) {
	in := model.Example1() // w1 at (2,1) velocity 10; t1 at (4,1)
	b := NewStaticBatch(in)
	if got := b.TravelCost(0, &in.Tasks[0]); got != 0.2 {
		t.Errorf("TravelCost = %v, want 0.2", got)
	}
}

func TestAtSetsExample1(t *testing.T) {
	b := NewStaticBatch(model.Example1())
	sets := atSets(b)
	if len(sets) != 5 {
		t.Fatalf("got %d associative sets, want 5", len(sets))
	}
	sizes := map[int]int{} // anchor -> size
	for _, s := range sets {
		sizes[s.anchor] = s.alive
	}
	// Paper: {{t1}, {t1,t2}, {t1,t2,t3}, {t4}, {t4,t5}}.
	want := map[int]int{0: 1, 1: 2, 2: 3, 3: 1, 4: 2}
	if !reflect.DeepEqual(sizes, want) {
		t.Errorf("set sizes = %v, want %v", sizes, want)
	}
}

func TestAtSetsSkipUnsatisfiableAnchors(t *testing.T) {
	in := model.Example1()
	// Batch without t1: sets anchored at t2, t3 are unbuildable.
	b := NewBatch(in,
		nil,
		[]*model.Task{&in.Tasks[1], &in.Tasks[2], &in.Tasks[3]},
		nil)
	sets := atSets(b)
	if len(sets) != 1 || b.Tasks[sets[0].anchor].ID != 3 {
		t.Fatalf("sets = %+v, want only t4's", sets)
	}
}

func TestSetHeapOrdering(t *testing.T) {
	h := &setHeap{}
	mk := func(anchor, size int) setEntry {
		return setEntry{weight: float64(size), set: &atSet{anchor: anchor, alive: size}}
	}
	h.push(mk(3, 2))
	h.push(mk(1, 5))
	h.push(mk(2, 5))
	h.push(mk(0, 1))
	var order []int
	for h.len() > 0 {
		e, ok := h.pop()
		if !ok {
			t.Fatal("pop failed")
		}
		order = append(order, e.set.anchor)
	}
	// Largest first; ties by anchor ascending.
	if !reflect.DeepEqual(order, []int{1, 2, 3, 0}) {
		t.Errorf("heap order = %v", order)
	}
	if _, ok := h.pop(); ok {
		t.Error("pop on empty heap succeeded")
	}
}

func TestSetHeapProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		h := &setHeap{}
		for i, sz := range sizes {
			h.push(setEntry{weight: float64(sz), set: &atSet{anchor: i}})
		}
		prev := math.Inf(1)
		for h.len() > 0 {
			e, _ := h.pop()
			if e.weight > prev {
				return false
			}
			prev = e.weight
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDependencyFixpointIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(rng, 8, 12, 3, true)
		b := NewStaticBatch(in)
		// Random (possibly invalid) assignment.
		a := model.NewAssignment()
		perm := rng.Perm(len(b.Tasks))
		for wi := 0; wi < len(b.Workers) && wi < len(perm); wi++ {
			if rng.Float64() < 0.7 {
				a.Add(b.Workers[wi].W.ID, b.Tasks[perm[wi]].ID)
			}
		}
		f1 := DependencyFixpoint(b, a)
		f2 := DependencyFixpoint(b, f1)
		if f1.Size() != f2.Size() {
			t.Fatalf("fixpoint not idempotent: %d vs %d", f1.Size(), f2.Size())
		}
		// Every kept pair's dependencies are kept.
		kept := f1.TaskSet()
		for _, p := range f1.Pairs {
			for _, d := range in.Task(p.Task).Deps {
				if !kept[d] {
					t.Fatalf("fixpoint kept t%d with missing dep t%d", p.Task, d)
				}
			}
		}
	}
}

func TestShuffledIndexesIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	idx := shuffledIndexes(20, rng)
	seen := make([]bool, 20)
	for _, v := range idx {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", idx)
		}
		seen[v] = true
	}
}

func TestSortedTaskIDs(t *testing.T) {
	in := &model.Instance{
		Tasks: []model.Task{
			{ID: 0}, {ID: 1}, {ID: 2},
		},
	}
	b := NewStaticBatch(in)
	got := b.sortedTaskIDs([]int{2, 0, 1})
	if !reflect.DeepEqual(got, []model.TaskID{0, 1, 2}) {
		t.Errorf("sortedTaskIDs = %v", got)
	}
}

func TestBatchWithSimStateOverrides(t *testing.T) {
	// A relocated worker with a partial budget: feasibility must follow the
	// overridden state, not the declared one.
	in := &model.Instance{
		Workers: []model.Worker{{
			ID: 0, Loc: geo.Pt(0, 0), Start: 0, Wait: 100, Velocity: 1, MaxDist: 10,
			Skills: model.NewSkillSet(0),
		}},
		Tasks: []model.Task{{ID: 0, Loc: geo.Pt(9, 0), Start: 0, Wait: 100, Requires: 0}},
	}
	// Static: distance 9 ≤ 10, feasible.
	if !NewStaticBatch(in).Feasible(0, &in.Tasks[0]) {
		t.Fatal("static case should be feasible")
	}
	// Mid-sim: worker already used 8 of its 10 budget from a new location.
	b := NewBatch(in, []BatchWorker{{
		W: &in.Workers[0], Loc: geo.Pt(5, 0), ReadyAt: 50, DistBudget: 2,
	}}, []*model.Task{&in.Tasks[0]}, nil)
	if b.Feasible(0, &in.Tasks[0]) {
		t.Error("exhausted budget ignored") // distance 4 > 2 budget
	}
}
