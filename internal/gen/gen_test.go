package gen

import (
	"math/rand"
	"slices"
	"testing"

	"dasc/internal/model"
)

// depsClosed reports whether every task's dependency list holds the
// dependencies of each task it lists: the transitive-closure invariant the
// allocators and the kernel's retirement walk rely on.
func depsClosed(tasks []model.Task) bool {
	for _, t := range tasks {
		for _, d := range t.Deps {
			for _, dd := range tasks[d].Deps {
				if !slices.Contains(t.Deps, dd) {
					return false
				}
			}
		}
	}
	return true
}

func TestRangeSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := R(2, 5)
	for i := 0; i < 100; i++ {
		v := r.Sample(rng)
		if v < 2 || v > 5 {
			t.Fatalf("Sample = %v outside [2,5]", v)
		}
		n := r.SampleInt(rng)
		if n < 2 || n > 5 {
			t.Fatalf("SampleInt = %d outside {2..5}", n)
		}
	}
	if got := R(3, 3).Sample(rng); got != 3 {
		t.Errorf("degenerate Sample = %v", got)
	}
	if got := R(3, 3).SampleInt(rng); got != 3 {
		t.Errorf("degenerate SampleInt = %v", got)
	}
	if got := R(1, 2).Scale(0.01); got != R(0.01, 0.02) {
		t.Errorf("Scale = %v", got)
	}
	if got := R(0, 70).String(); got != "[0, 70]" {
		t.Errorf("String = %q", got)
	}
}

func TestSyntheticDefaultsSmall(t *testing.T) {
	c := DefaultSynthetic().Scale(0.02) // 100 workers, 100 tasks
	in, err := Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Workers) != 100 || len(in.Tasks) != 100 {
		t.Fatalf("sizes %d/%d", len(in.Workers), len(in.Tasks))
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// Parameter ranges respected.
	for i := range in.Workers {
		w := &in.Workers[i]
		if w.Velocity < 0.03 || w.Velocity > 0.04 {
			t.Fatalf("velocity %v outside Table V default", w.Velocity)
		}
		if w.MaxDist < 0.3 || w.MaxDist > 0.4 {
			t.Fatalf("max dist %v outside default", w.MaxDist)
		}
		if n := w.Skills.Len(); n < 1 || n > 15 {
			t.Fatalf("skill count %d outside [1,15]", n)
		}
		if w.Start < 0 || w.Start > 75 || w.Wait < 10 || w.Wait > 15 {
			t.Fatalf("temporal params out of range: %+v", w)
		}
		if !c.Region.Contains(w.Loc) {
			t.Fatalf("worker outside region: %v", w.Loc)
		}
	}
	for i := range in.Tasks {
		tk := &in.Tasks[i]
		if int(tk.Requires) >= c.SkillUniverse {
			t.Fatalf("skill %d outside universe", tk.Requires)
		}
		if !c.Region.Contains(tk.Loc) {
			t.Fatalf("task outside region: %v", tk.Loc)
		}
	}
}

func TestSyntheticDepsClosedAndBackwards(t *testing.T) {
	c := DefaultSynthetic().Scale(0.03)
	c.DepSize = R(0, 10)
	in, err := Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	if !depsClosed(in.Tasks) {
		t.Error("dependency sets not transitively closed")
	}
	anyDeps := false
	for i := range in.Tasks {
		for _, d := range in.Tasks[i].Deps {
			anyDeps = true
			if d >= in.Tasks[i].ID {
				t.Fatalf("task t%d depends on non-earlier t%d", in.Tasks[i].ID, d)
			}
		}
	}
	if !anyDeps {
		t.Error("no dependencies generated at all")
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	c := DefaultSynthetic().Scale(0.01)
	a, err := Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Workers {
		if a.Workers[i].Loc != b.Workers[i].Loc || a.Workers[i].Velocity != b.Workers[i].Velocity {
			t.Fatal("same seed, different workers")
		}
	}
	for i := range a.Tasks {
		if a.Tasks[i].Loc != b.Tasks[i].Loc || len(a.Tasks[i].Deps) != len(b.Tasks[i].Deps) {
			t.Fatal("same seed, different tasks")
		}
	}
	c2 := c
	c2.Seed = 999
	d, err := Synthetic(c2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Workers[0].Loc == a.Workers[0].Loc {
		t.Error("different seeds produced identical first worker")
	}
}

func TestSyntheticValidation(t *testing.T) {
	bad := DefaultSynthetic()
	bad.SkillUniverse = 0
	if _, err := Synthetic(bad); err == nil {
		t.Error("zero skill universe accepted")
	}
	bad = DefaultSynthetic()
	bad.WorkerSkills = R(0, 3)
	if _, err := Synthetic(bad); err == nil {
		t.Error("zero-skill workers accepted")
	}
	bad = DefaultSynthetic()
	bad.Workers = -1
	if _, err := Synthetic(bad); err == nil {
		t.Error("negative workers accepted")
	}
	bad = DefaultSynthetic()
	bad.DepSize = R(-1, 3)
	if _, err := Synthetic(bad); err == nil {
		t.Error("negative dep size accepted")
	}
}

func TestSmallScaleConfig(t *testing.T) {
	c := SmallScale()
	if c.Workers != 20 || c.Tasks != 40 || c.SkillUniverse != 10 {
		t.Errorf("SmallScale = %+v", c)
	}
	in, err := Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Workers {
		if n := in.Workers[i].Skills.Len(); n < 1 || n > 3 {
			t.Fatalf("small-scale worker skills %d outside [1,3]", n)
		}
	}
	// The paper's procedure adds a candidate *and its closure* until the
	// drawn target (≤ 8) is reached, so sets may overshoot slightly — but a
	// set much larger than target+closure-step indicates a generator bug.
	for i := range in.Tasks {
		if n := len(in.Tasks[i].Deps); n > 2*8 {
			t.Fatalf("small-scale dep size %d far above the [0,8] target", n)
		}
	}
}

func TestMeetupSubstitute(t *testing.T) {
	c := DefaultMeetup().Scale(0.1) // 352 workers, 128 tasks, 12 groups
	in, err := Meetup(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(in.Workers) != 352 || len(in.Tasks) != 128 {
		t.Fatalf("sizes %d/%d", len(in.Workers), len(in.Tasks))
	}
	if !depsClosed(in.Tasks) {
		t.Error("meetup deps not closed")
	}
	for i := range in.Workers {
		if !c.Region.Contains(in.Workers[i].Loc) {
			t.Fatal("worker outside Hong Kong box")
		}
		if in.Workers[i].Skills.IsEmpty() {
			t.Fatal("worker with no tags")
		}
	}
	for i := range in.Tasks {
		if !c.Region.Contains(in.Tasks[i].Loc) {
			t.Fatal("task outside Hong Kong box")
		}
	}
}

func TestMeetupDeterministic(t *testing.T) {
	c := DefaultMeetup().Scale(0.05)
	a, _ := Meetup(c)
	b, _ := Meetup(c)
	for i := range a.Tasks {
		if a.Tasks[i].Loc != b.Tasks[i].Loc {
			t.Fatal("same seed, different meetup tasks")
		}
	}
}

func TestMeetupValidation(t *testing.T) {
	bad := DefaultMeetup()
	bad.Groups = 0
	if _, err := Meetup(bad); err == nil {
		t.Error("zero groups accepted")
	}
	bad = DefaultMeetup()
	bad.TagsPerGroup = R(0, 2)
	if _, err := Meetup(bad); err == nil {
		t.Error("empty group tag sets accepted")
	}
}

func TestGrowDepsRespectsTargetAndClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Build a chain of tasks with closed deps: task i depends on all earlier.
	var tasks []model.Task
	var cands []model.TaskID
	for i := 0; i < 10; i++ {
		deps := make([]model.TaskID, i)
		for j := range deps {
			deps[j] = model.TaskID(j)
		}
		tasks = append(tasks, model.Task{ID: model.TaskID(i), Deps: deps})
		cands = append(cands, model.TaskID(i))
	}
	g := newDepGrower(rng, len(tasks))
	deps := g.grow(tasks, cands, R(3, 3))
	if len(deps) < 3 {
		t.Errorf("target not reached: %v", deps)
	}
	// Closure: picking task k pulls in 0..k−1, so the result must be a
	// prefix set {0..max}.
	maxID := deps[len(deps)-1]
	if int(maxID) != len(deps)-1 {
		t.Errorf("deps not closed: %v", deps)
	}
	if got := g.grow(tasks, nil, R(5, 5)); got != nil {
		t.Errorf("no candidates should yield nil, got %v", got)
	}
	if got := g.grow(tasks, cands, R(0, 0)); got != nil {
		t.Errorf("zero target should yield nil, got %v", got)
	}
}

func TestTaskStartTimesFollowCreationOrder(t *testing.T) {
	syn, err := Synthetic(DefaultSynthetic().Scale(0.02))
	if err != nil {
		t.Fatal(err)
	}
	meet, err := Meetup(DefaultMeetup().Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string]*model.Instance{"synthetic": syn, "meetup": meet} {
		for i := 1; i < len(in.Tasks); i++ {
			if in.Tasks[i].Start < in.Tasks[i-1].Start {
				t.Fatalf("%s: task %d starts before task %d — creation order broken", name, i, i-1)
			}
		}
		// Consequence: every dependency appears no later than its dependant.
		for i := range in.Tasks {
			for _, d := range in.Tasks[i].Deps {
				if in.Tasks[d].Start > in.Tasks[i].Start {
					t.Fatalf("%s: dependency t%d appears after dependant t%d", name, d, i)
				}
			}
		}
	}
}

func TestSyntheticHotspots(t *testing.T) {
	c := DefaultSynthetic().Scale(0.04)
	c.Hotspots = 3
	c.HotspotSpread = 0.02
	in, err := Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range in.Workers {
		if !c.Region.Contains(in.Workers[i].Loc) {
			t.Fatal("hotspot worker escaped the region")
		}
	}
	// Clustering check: mean nearest-neighbour distance among tasks should
	// be far below the uniform expectation for tight hotspots.
	uni := DefaultSynthetic().Scale(0.04)
	uniIn, err := Synthetic(uni)
	if err != nil {
		t.Fatal(err)
	}
	if c, u := meanNNDist(in), meanNNDist(uniIn); c >= u {
		t.Errorf("clustered NN distance %v not below uniform %v", c, u)
	}
}

// meanNNDist returns the mean nearest-neighbour distance among task
// locations (brute force; test-sized inputs only).
func meanNNDist(in *model.Instance) float64 {
	var sum float64
	for i := range in.Tasks {
		best := -1.0
		for j := range in.Tasks {
			if i == j {
				continue
			}
			if d := in.Tasks[i].Loc.DistanceTo(in.Tasks[j].Loc); best < 0 || d < best {
				best = d
			}
		}
		sum += best
	}
	return sum / float64(len(in.Tasks))
}

func TestTaskWeightsIndependentOfStructure(t *testing.T) {
	base := DefaultSynthetic().Scale(0.05)
	base.Seed = 9
	plain, err := Synthetic(base)
	if err != nil {
		t.Fatal(err)
	}
	weighted := base
	weighted.TaskWeight = R(1, 5)
	w, err := Synthetic(weighted)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Tasks {
		a, b := &plain.Tasks[i], &w.Tasks[i]
		if a.Loc != b.Loc || a.Start != b.Start || len(a.Deps) != len(b.Deps) || a.Requires != b.Requires {
			t.Fatalf("task %d structure changed when weights enabled", i)
		}
		if b.Weight < 1 || b.Weight > 5 {
			t.Fatalf("weight %v outside [1,5]", b.Weight)
		}
		if a.Weight != 0 {
			t.Fatalf("unweighted task got weight %v", a.Weight)
		}
	}
}

func TestZipfSkills(t *testing.T) {
	c := DefaultSynthetic().Scale(0.05)
	c.ZipfSkills = 1.5
	in, err := Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	// Skill 0 must dominate task requirements under Zipf but not uniform.
	countZero := 0
	for i := range in.Tasks {
		if in.Tasks[i].Requires == 0 {
			countZero++
		}
	}
	if countZero < len(in.Tasks)/10 {
		t.Errorf("zipf head skill required by only %d/%d tasks", countZero, len(in.Tasks))
	}
	bad := DefaultSynthetic()
	bad.ZipfSkills = 0.5
	if _, err := Synthetic(bad); err == nil {
		t.Error("sub-1 Zipf exponent accepted")
	}
}
