package core

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dasc/internal/model"
)

// gameWorklistMatrix is the full option matrix the differential tests sweep:
// both termination thresholds the paper uses and both initialisations.
var gameWorklistMatrix = []GameOptions{
	{Threshold: 0},
	{Threshold: 0, GreedyInit: true},
	{Threshold: 0.05},
	{Threshold: 0.05, GreedyInit: true},
}

// TestGameWorklistBitExactMatrix sweeps seeds × the full option matrix and
// requires the worklist engine to be bit-exact with the naive sweep:
// identical assignment pairs, round counts, per-round update ratios, final
// utility, and move counts.
func TestGameWorklistBitExactMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(901))
	for trial := 0; trial < 25; trial++ {
		in := randomInstance(rng, 4+rng.Intn(20), 4+rng.Intn(24), 4, trial%2 == 0)
		seed := rng.Int63()
		for _, opt := range gameWorklistMatrix {
			opt.Seed = seed
			b := NewStaticBatch(in)
			fast := NewGame(opt)
			slowOpt := opt
			slowOpt.DisableWorklist = true
			slow := NewGame(slowOpt)
			if got := fast.Options().DisableWorklist; got {
				t.Fatal("worklist engine must be the default")
			}
			af, tf := fast.AssignTraced(b)
			as, ts := slow.AssignTraced(NewStaticBatch(in))
			if af.String() != as.String() {
				t.Fatalf("trial %d opt %+v: assignment diverged:\nworklist %v\nnaive    %v", trial, opt, af, as)
			}
			if tf.Rounds != ts.Rounds || tf.Converged != ts.Converged || tf.Active != ts.Active {
				t.Fatalf("trial %d opt %+v: trace diverged: worklist %+v, naive %+v", trial, opt, tf, ts)
			}
			if !float64SlicesEqual(tf.UpdateRatios, ts.UpdateRatios) {
				t.Fatalf("trial %d opt %+v: update ratios diverged: %v vs %v", trial, opt, tf.UpdateRatios, ts.UpdateRatios)
			}
			if tf.FinalUtility != ts.FinalUtility {
				t.Fatalf("trial %d opt %+v: final utility diverged: %v vs %v", trial, opt, tf.FinalUtility, ts.FinalUtility)
			}
			if tf.Moved != ts.Moved {
				t.Fatalf("trial %d opt %+v: move count diverged: %d vs %d", trial, opt, tf.Moved, ts.Moved)
			}
			// Per-round accounting: every active worker is evaluated or
			// skipped exactly once per round, and only the worklist skips.
			if tf.Evaluated+tf.Skipped != int64(tf.Active)*int64(tf.Rounds) {
				t.Fatalf("trial %d opt %+v: worklist counters: evaluated %d + skipped %d != active %d · rounds %d",
					trial, opt, tf.Evaluated, tf.Skipped, tf.Active, tf.Rounds)
			}
			if ts.Skipped != 0 {
				t.Fatalf("trial %d opt %+v: naive sweep skipped %d workers", trial, opt, ts.Skipped)
			}
			if ts.Evaluated != int64(ts.Active)*int64(ts.Rounds) {
				t.Fatalf("trial %d opt %+v: naive counters: evaluated %d != active %d · rounds %d",
					trial, opt, ts.Evaluated, ts.Active, ts.Rounds)
			}
		}
	}
}

// TestGameWorklistVerify exercises the differential escape hatch itself.
func TestGameWorklistVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(902))
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 10+rng.Intn(15), 10+rng.Intn(15), 4, true)
		for _, opt := range gameWorklistMatrix {
			opt.Seed = rng.Int63()
			if err := NewGame(opt).VerifyWorklist(NewStaticBatch(in)); err != nil {
				t.Fatalf("trial %d opt %+v: %v", trial, opt, err)
			}
		}
	}
	// Batches with satisfied and corrupted dependencies too: duplicates,
	// self-dependencies, and IDs beyond the instance or negative.
	for trial := 0; trial < 100; trial++ {
		b := randomWiringBatch(rng, trial%2 == 1)
		for _, opt := range gameWorklistMatrix {
			opt.Seed = rng.Int63()
			if err := NewGame(opt).VerifyWorklist(b); err != nil {
				t.Fatalf("wiring trial %d opt %+v: %v", trial, opt, err)
			}
		}
	}
}

// TestGameWorklistDeterministicAcrossGOMAXPROCS pins that the engine's output
// is independent of scheduler width: the parallel pieces live in the batch
// index build, and the game sweep itself is strictly sequential.
func TestGameWorklistDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(903))
	in := randomInstance(rng, 40, 50, 5, true)
	opt := GameOptions{Threshold: 0, GreedyInit: true, Seed: 7}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var want string
	var wantTrace GameTrace
	for i, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		a, tr := NewGame(opt).AssignTraced(NewStaticBatch(in))
		if i == 0 {
			want, wantTrace = a.String(), *tr
			continue
		}
		if a.String() != want {
			t.Fatalf("GOMAXPROCS=%d: assignment diverged:\n%v\nwant %v", procs, a, want)
		}
		if tr.Rounds != wantTrace.Rounds || tr.FinalUtility != wantTrace.FinalUtility ||
			tr.Evaluated != wantTrace.Evaluated || tr.Skipped != wantTrace.Skipped || tr.Moved != wantTrace.Moved {
			t.Fatalf("GOMAXPROCS=%d: trace diverged: %+v want %+v", procs, tr, wantTrace)
		}
	}
}

// TestGreedyAssignIndicesMatchesAssign pins G-G's seed — the index-pair form
// of the greedy result, filtered by seedFixpoint — against the public
// Assign, and against the map oracle of the fixpoint on the same raw pairs.
func TestGreedyAssignIndicesMatchesAssign(t *testing.T) {
	rng := rand.New(rand.NewSource(904))
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(rng, 5+rng.Intn(20), 5+rng.Intn(20), 4, trial%2 == 0)
		g := NewGreedy()
		b := NewStaticBatch(in)
		taskOf := g.assignIndices(b)
		want := slices.Clone(taskOf)
		oracleFixpointIndexed(b, satisfiedMap(b.Satisfied), want)
		seedFixpoint(b, taskOf)
		if !slices.Equal(taskOf, want) {
			t.Fatalf("trial %d: seed kept %v, want %v", trial, taskOf, want)
		}
		viaIdx := make(map[[2]int64]bool)
		for wi, ti := range taskOf {
			if ti >= 0 {
				viaIdx[[2]int64{int64(b.Workers[wi].W.ID), int64(b.Tasks[ti].ID)}] = true
			}
		}
		a := g.Assign(NewStaticBatch(in))
		if len(a.Pairs) != len(viaIdx) {
			t.Fatalf("trial %d: %d pairs via indices, %d via Assign", trial, len(viaIdx), len(a.Pairs))
		}
		for _, p := range a.Pairs {
			if !viaIdx[[2]int64{int64(p.Worker), int64(p.Task)}] {
				t.Fatalf("trial %d: pair %v missing from index form", trial, p)
			}
		}
	}
}

// TestGameWorklistEvaluatorMatchesUtility drives random claim profiles
// through gs.move and markMove on random batches, clean and corrupted, and
// requires the worklist's evaluator to equal gameState.utility bit for bit
// for every worker and candidate: the baseline utility(cur, cur), and the
// deviation utility(ti, cur) in its shared form (cur keeps a claimant) and
// its sole-claimant form.
func TestGameWorklistEvaluatorMatchesUtility(t *testing.T) {
	rng := rand.New(rand.NewSource(906))
	forms := [3]int{}
	for trial := 0; trial < 200; trial++ {
		b := randomWiringBatch(rng, trial%2 == 1)
		gs := newGameState(b, []float64{1.5, 3.7, 10}[trial%3])
		idx := b.Index()
		for wi := range b.Workers {
			if s := idx.StrategySet(wi); len(s) > 0 && rng.Intn(3) > 0 {
				gs.move(wi, int(s[rng.Intn(len(s))]))
			}
		}
		wl := newGameWorklist(gs)
		for step := 0; step <= 3*len(b.Workers); step++ {
			for wi := range b.Workers {
				cur := gs.strategy[wi]
				if cur >= 0 {
					forms[0]++
					got, want := wl.utility(gs, cur, false, -1, 0), gs.utility(cur, cur)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d step %d worker %d: baseline utility(%d) = %v, want %v",
							trial, step, wi, cur, got, want)
					}
				}
				sole, base := wl.leave(gs, cur)
				for _, s := range idx.StrategySet(wi) {
					ti := int(s)
					if ti == cur {
						continue
					}
					if sole < 0 {
						forms[1]++
					} else {
						forms[2]++
					}
					got, want := wl.utility(gs, ti, true, sole, base), gs.utility(ti, cur)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d step %d worker %d: utility(%d, %d) = %v, want %v (sole %d)",
							trial, step, wi, ti, cur, got, want, sole)
					}
				}
			}
			wi := rng.Intn(len(b.Workers))
			from, to := gs.strategy[wi], -1
			if s := idx.StrategySet(wi); len(s) > 0 && rng.Intn(4) > 0 {
				to = int(s[rng.Intn(len(s))])
			}
			if to != from {
				gs.move(wi, to)
				wl.markMove(gs, idx, from, to)
			}
		}
	}
	for i, n := range forms {
		if n < 1000 {
			t.Fatalf("form %d evaluated only %d times: %v", i, n, forms)
		}
	}
}

// TestGameStateArenaReuse runs a big batch, then a small one, over the same
// step arena and checks the small run is unpolluted by the big run's
// buffers.
func TestGameStateArenaReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(905))
	big := randomInstance(rng, 30, 40, 5, true)
	small := randomInstance(rng, 5, 6, 3, true)
	opt := GameOptions{Threshold: 0, GreedyInit: true, Seed: 11}

	// Fresh-arena reference for the small instance.
	want, wantTrace := NewGame(opt).AssignTraced(NewStaticBatch(small))

	// Churn one arena with the big instance, then re-run the small one on
	// it; the reused oversized buffers must produce the identical result.
	a := new(stepArena)
	static := func(in *model.Instance) *Batch {
		src := NewStaticBatch(in)
		return a.newBatch(in, src.Workers, src.Tasks, nil)
	}
	for i := 0; i < 3; i++ {
		NewGame(opt).Assign(static(big))
	}
	got, gotTrace := NewGame(opt).AssignTraced(static(small))
	if got.String() != want.String() {
		t.Fatalf("arena rerun diverged:\n%v\nwant %v", got, want)
	}
	if gotTrace.FinalUtility != wantTrace.FinalUtility || gotTrace.Rounds != wantTrace.Rounds {
		t.Fatalf("arena rerun trace diverged: %+v want %+v", gotTrace, wantTrace)
	}
}
