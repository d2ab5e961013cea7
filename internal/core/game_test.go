package core

import (
	"math"
	"math/rand"
	"testing"

	"dasc/internal/geo"
	"dasc/internal/model"
)

func TestGameExample1(t *testing.T) {
	in := model.Example1()
	b := NewStaticBatch(in)
	for _, g := range []*Game{
		NewGame(GameOptions{Seed: 1}),
		NewGame(GameOptions{Seed: 1, Threshold: 0.05}),
		NewGame(GameOptions{Seed: 1, GreedyInit: true}),
	} {
		a, trace := g.AssignTraced(b)
		validateBatchAssignment(t, b, a)
		if a.Size() != 3 {
			t.Errorf("%s score = %d, want 3 (%v)", g.Name(), a.Size(), a)
		}
		if !trace.Converged {
			t.Errorf("%s did not converge in %d rounds", g.Name(), trace.Rounds)
		}
	}
}

func TestGameNames(t *testing.T) {
	if got := NewGame(GameOptions{}).Name(); got != NameGame {
		t.Errorf("Name = %q", got)
	}
	if got := NewGame(GameOptions{Threshold: 0.05}).Name(); got != NameGame5 {
		t.Errorf("Name = %q", got)
	}
	if got := NewGame(GameOptions{GreedyInit: true}).Name(); got != NameGG {
		t.Errorf("Name = %q", got)
	}
}

func TestGameDefaultsApplied(t *testing.T) {
	g := NewGame(GameOptions{Alpha: 0.5, Threshold: -1})
	if g.Options().Alpha != 10 || g.Options().Threshold != 0 {
		t.Errorf("defaults not applied: %+v", g.Options())
	}
}

// randomInstance builds a seeded random instance with optional dependencies.
func randomInstance(rng *rand.Rand, nWorkers, nTasks, nSkills int, withDeps bool) *model.Instance {
	in := &model.Instance{SkillUniverse: nSkills}
	for i := 0; i < nWorkers; i++ {
		skills := model.NewSkillSet(model.Skill(rng.Intn(nSkills)))
		if rng.Float64() < 0.5 {
			skills.Add(model.Skill(rng.Intn(nSkills)))
		}
		in.Workers = append(in.Workers, model.Worker{
			ID:  model.WorkerID(i),
			Loc: geo.Pt(rng.Float64(), rng.Float64()),
			// Everyone overlaps in time; spatial/skill constraints bite.
			Start: 0, Wait: 100,
			Velocity: 0.05 + rng.Float64()*0.05,
			MaxDist:  0.3 + rng.Float64()*0.4,
			Skills:   skills,
		})
	}
	for i := 0; i < nTasks; i++ {
		t := model.Task{
			ID:       model.TaskID(i),
			Loc:      geo.Pt(rng.Float64(), rng.Float64()),
			Start:    0,
			Wait:     20 + rng.Float64()*30,
			Requires: model.Skill(rng.Intn(nSkills)),
		}
		if withDeps && i > 0 && rng.Float64() < 0.4 {
			// Depend on a random earlier task plus its closure.
			d := model.TaskID(rng.Intn(i))
			seen := map[model.TaskID]bool{d: true}
			for _, dd := range in.Tasks[d].Deps {
				seen[dd] = true
			}
			for id := range seen {
				t.Deps = append(t.Deps, id)
			}
		}
		in.Tasks = append(in.Tasks, t)
	}
	return in
}

func TestGameAlwaysValidOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		in := randomInstance(rng, 3+rng.Intn(12), 3+rng.Intn(15), 4, true)
		b := NewStaticBatch(in)
		for _, name := range AllNames() {
			alloc, err := NewByName(name, int64(trial))
			if err != nil {
				t.Fatal(err)
			}
			// Baselines return raw assignments; their valid subset must
			// satisfy every constraint like the approaches' output does.
			a := DependencyFixpoint(b, alloc.Assign(b))
			validateBatchAssignment(t, b, a)
		}
	}
}

func TestGameConvergesWithinPaperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 20, 25, 5, true)
		b := NewStaticBatch(in)
		g := NewGame(GameOptions{Seed: int64(trial)})
		_, trace := g.AssignTraced(b)
		if !trace.Converged {
			t.Errorf("trial %d: no convergence in %d rounds", trial, trace.Rounds)
		}
	}
}

// TestExactPotentialIdentity verifies Theorem IV.1's identity
// U_w(s) − U_w(s') = Φ(s) − Φ(s') for unilateral deviations on
// dependency-free instances, where the congestion-game potential is exact.
func TestExactPotentialIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 50; trial++ {
		in := randomInstance(rng, 2+rng.Intn(10), 2+rng.Intn(10), 3, false)
		b := NewStaticBatch(in)
		gs := newGameState(b, 10)
		strategies := b.StrategySets()
		// Random initial profile.
		for wi := range b.Workers {
			if s := strategies[wi]; len(s) > 0 {
				gs.move(wi, s[rng.Intn(len(s))])
			}
		}
		// Random unilateral deviations.
		for dev := 0; dev < 20; dev++ {
			wi := rng.Intn(len(b.Workers))
			set := strategies[wi]
			if len(set) == 0 {
				continue
			}
			cur := gs.strategy[wi]
			next := set[rng.Intn(len(set))]
			if next == cur {
				continue
			}
			uBefore := gs.utility(cur, cur)
			uAfter := gs.utility(next, cur)
			phiBefore := gs.potential()
			gs.move(wi, next)
			phiAfter := gs.potential()
			if math.Abs((uAfter-uBefore)-(phiAfter-phiBefore)) > 1e-9 {
				t.Fatalf("trial %d dev %d: ΔU=%v ΔΦ=%v",
					trial, dev, uAfter-uBefore, phiAfter-phiBefore)
			}
		}
	}
}

// TestPotentialNonDecreasingUnderBestResponse: along the executed
// best-response dynamic on dependency-free instances, Φ never decreases.
func TestPotentialNonDecreasingUnderBestResponse(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(rng, 10, 12, 3, false)
		b := NewStaticBatch(in)
		gs := newGameState(b, 10)
		strategies := b.StrategySets()
		for wi := range b.Workers {
			if s := strategies[wi]; len(s) > 0 {
				gs.move(wi, s[rng.Intn(len(s))])
			}
		}
		prev := gs.potential()
		for round := 0; round < 30; round++ {
			changed := false
			for wi := range b.Workers {
				set := strategies[wi]
				if len(set) == 0 {
					continue
				}
				cur := gs.strategy[wi]
				bestTi, bestU := cur, gs.utility(cur, cur)
				for _, ti := range set {
					if u := gs.utility(ti, cur); u > bestU+utilityEps {
						bestU, bestTi = u, ti
					}
				}
				if bestTi != cur {
					gs.move(wi, bestTi)
					changed = true
					now := gs.potential()
					if now < prev-1e-9 {
						t.Fatalf("trial %d: potential decreased %v → %v", trial, prev, now)
					}
					prev = now
				}
			}
			if !changed {
				break
			}
		}
	}
}

// TestTotalUtilityMatchesScore: with single claimants and no dependencies,
// ΣU equals the number of claimed tasks (the paper's observation
// Sum(M) = Σ_w U_w).
func TestTotalUtilityMatchesScore(t *testing.T) {
	in := &model.Instance{
		Workers: []model.Worker{
			{ID: 0, Start: 0, Wait: 10, Velocity: 1, MaxDist: 10, Skills: model.NewSkillSet(0)},
			{ID: 1, Start: 0, Wait: 10, Velocity: 1, MaxDist: 10, Skills: model.NewSkillSet(1)},
		},
		Tasks: []model.Task{
			{ID: 0, Start: 0, Wait: 10, Requires: 0},
			{ID: 1, Start: 0, Wait: 10, Requires: 1},
		},
	}
	b := NewStaticBatch(in)
	gs := newGameState(b, 10)
	gs.move(0, 0)
	gs.move(1, 1)
	if got := gs.totalUtility(); math.Abs(got-2) > 1e-12 {
		t.Errorf("total utility = %v, want 2", got)
	}
}

// TestUtilitySharing: two claimants on one root task share its unit value.
func TestUtilitySharing(t *testing.T) {
	in := &model.Instance{
		Workers: []model.Worker{
			{ID: 0, Start: 0, Wait: 10, Velocity: 1, MaxDist: 10, Skills: model.NewSkillSet(0)},
			{ID: 1, Start: 0, Wait: 10, Velocity: 1, MaxDist: 10, Skills: model.NewSkillSet(0)},
		},
		Tasks: []model.Task{{ID: 0, Start: 0, Wait: 10, Requires: 0}},
	}
	b := NewStaticBatch(in)
	gs := newGameState(b, 10)
	gs.move(0, 0)
	gs.move(1, 0)
	if got := gs.utility(0, 0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("shared utility = %v, want 0.5", got)
	}
}

// TestUtilityDependencyBonus: Equation 3's second term rewards claiming a
// task that live dependants depend on.
func TestUtilityDependencyBonus(t *testing.T) {
	alpha := 10.0
	in := &model.Instance{
		Workers: []model.Worker{
			{ID: 0, Start: 0, Wait: 10, Velocity: 1, MaxDist: 10, Skills: model.NewSkillSet(0)},
			{ID: 1, Start: 0, Wait: 10, Velocity: 1, MaxDist: 10, Skills: model.NewSkillSet(1)},
		},
		Tasks: []model.Task{
			{ID: 0, Start: 0, Wait: 10, Requires: 0},
			{ID: 1, Start: 0, Wait: 10, Requires: 1, Deps: []model.TaskID{0}},
		},
	}
	b := NewStaticBatch(in)
	gs := newGameState(b, alpha)
	gs.move(0, 0) // w0 claims the root t0
	gs.move(1, 1) // w1 claims the dependant t1
	// w0: Utility_Self 1/1 (root) + bonus ∏a/(α·|D_1|·nw_0) = 1/(10·1·1).
	if got, want := gs.utility(0, 0), 1+1/(alpha*1*1); math.Abs(got-want) > 1e-12 {
		t.Errorf("root utility = %v, want %v", got, want)
	}
	// w1: deps live → (α−1)/(α·1); no dependants.
	if got, want := gs.utility(1, 1), (alpha-1)/alpha; math.Abs(got-want) > 1e-12 {
		t.Errorf("dependant utility = %v, want %v", got, want)
	}
	// If w0 abandons t0, t1's self-utility collapses to 0.
	gs.move(0, -1)
	if got := gs.utility(1, 1); got != 0 {
		t.Errorf("utility with dead dependency = %v, want 0", got)
	}
}

func TestGameThresholdTerminatesEarlier(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	in := randomInstance(rng, 60, 80, 5, true)
	b := NewStaticBatch(in)
	_, strict := NewGame(GameOptions{Seed: 9}).AssignTraced(b)
	_, loose := NewGame(GameOptions{Seed: 9, Threshold: 0.10}).AssignTraced(b)
	if loose.Rounds > strict.Rounds {
		t.Errorf("threshold 10%% used more rounds (%d) than strict (%d)", loose.Rounds, strict.Rounds)
	}
}

func TestGameEmptyAndNoStrategies(t *testing.T) {
	// No feasible pairs at all: skill mismatch everywhere.
	in := &model.Instance{
		Workers: []model.Worker{{ID: 0, Start: 0, Wait: 10, Velocity: 1, MaxDist: 10, Skills: model.NewSkillSet(5)}},
		Tasks:   []model.Task{{ID: 0, Start: 0, Wait: 10, Requires: 0}},
	}
	b := NewStaticBatch(in)
	a, trace := NewGame(GameOptions{Seed: 1}).AssignTraced(b)
	if a.Size() != 0 || trace.Rounds != 0 {
		t.Errorf("no-strategy game: %v, %+v", a, trace)
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range append(AllNames(), NameDFS) {
		alloc, err := NewByName(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if alloc.Name() != name {
			t.Errorf("NewByName(%q).Name() = %q", name, alloc.Name())
		}
	}
	if _, err := NewByName("bogus", 1); err == nil {
		t.Error("unknown name accepted")
	}
}
