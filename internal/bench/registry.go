package bench

import (
	"fmt"
	"sort"

	"dasc/internal/core"
	"dasc/internal/gen"
)

// Registry returns every experiment of the paper's evaluation, keyed by ID.
// fig2/table6 are the Section V-B/V-C setup studies; fig3–fig6 the real-data
// sweeps; fig7–fig11 the synthetic sweeps; fig12–fig15 the technical-report
// appendix sweeps; the ablation-* entries probe this implementation's own
// design choices (DESIGN.md §6).
func Registry() map[string]*Experiment {
	exps := []*Experiment{
		fig2(), table6(),
		fig3(), fig4(), fig5(), fig6(),
		fig7(), fig8(), fig9(), fig10(), fig11(),
		fig12(), fig13(), fig14(), fig15(),
		ablationAlpha(), ablationMatcher(), ablationBatchInterval(),
		ablationSpatial(), ablationAugment(), ablationWeighted(),
		ablationOnline(), ablationSkillDist(),
	}
	m := make(map[string]*Experiment, len(exps))
	for _, e := range exps {
		m[e.ID] = e
	}
	return m
}

// IDs returns the registry keys in a stable order.
func IDs() []string {
	m := Registry()
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Lookup fetches one experiment by ID.
func Lookup(id string) (*Experiment, error) {
	if e, ok := Registry()[id]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (known: %v)", id, IDs())
}

// rangePoints builds sweep points over [lo,hi] ranges.
func rangePoints(ranges []gen.Range, apply func(*Workload, gen.Range)) []Point {
	pts := make([]Point, len(ranges))
	for i, r := range ranges {
		r := r
		pts[i] = Point{
			Label: r.String(),
			Apply: func(w *Workload) { apply(w, r) },
		}
	}
	return pts
}

// intPoints builds sweep points over integer population values.
func intPoints(values []int, format string, apply func(*Workload, int)) []Point {
	pts := make([]Point, len(values))
	for i, v := range values {
		v := v
		pts[i] = Point{
			Label: fmt.Sprintf(format, v),
			Apply: func(w *Workload) { apply(w, v) },
		}
	}
	return pts
}

// --- Setup studies -----------------------------------------------------

func fig2() *Experiment {
	thresholds := []float64{0, 0.01, 0.025, 0.05, 0.075, 0.10}
	var algs []AllocatorSpec
	for _, th := range thresholds {
		th := th
		algs = append(algs, AllocatorSpec{
			Label: fmt.Sprintf("Game-%.1f%%", th*100),
			Make: func(seed int64) core.Allocator {
				return core.NewGame(core.GameOptions{Seed: seed, Threshold: th})
			},
		})
	}
	return &Experiment{
		ID:    "fig2",
		Paper: "Figure 2(a,b)",
		Title: "Effect of the Game termination threshold (real data)",
		Axis:  "threshold θ of the strategy-update ratio",
		Base:  DefaultMeetupWorkload(),
		Points: []Point{{
			Label: "default", Apply: func(w *Workload) {},
		}},
		Algorithms: algs,
		FullScale:  "3,525 workers / 1,282 tasks",
	}
}

func table6() *Experiment {
	algs := []AllocatorSpec{{
		Label: core.NameDFS,
		Make: func(seed int64) core.Allocator {
			return core.NewDFS(core.DFSOptions{})
		},
	}}
	algs = append(algs, paperAllocators()...)
	w := Workload{Kind: Synthetic, Syn: gen.SmallScale(), StaticBatch: true}
	return &Experiment{
		ID:    "table6",
		Paper: "Table VI",
		Title: "Small-scale comparison against the exact DFS optimum",
		Axis:  "single configuration: 20 workers, 40 tasks, r=10, WS∈[1,3], |D|∈[0,8]",
		Base:  w,
		Points: []Point{{
			Label: "small-scale", Apply: func(w *Workload) {},
		}},
		Algorithms: algs,
		FullScale:  "20 workers / 40 tasks",
	}
}

// --- Real-data (Meetup-substitute) sweeps, Figures 3–6 ------------------

func fig3() *Experiment {
	return &Experiment{
		ID:    "fig3",
		Paper: "Figure 3(a,b)",
		Title: "Effect of the maximum moving distance range (real data)",
		Axis:  "[d−, d+]",
		Base:  DefaultMeetupWorkload(),
		Points: rangePoints([]gen.Range{
			gen.R(0.02, 0.025), gen.R(0.025, 0.03), gen.R(0.03, 0.035),
			gen.R(0.035, 0.04), gen.R(0.04, 0.045),
		}, func(w *Workload, r gen.Range) { w.Meet.MaxDist = r }),
		Algorithms: paperAllocators(),
		FullScale:  "3,525 workers / 1,282 tasks",
	}
}

func fig4() *Experiment {
	return &Experiment{
		ID:    "fig4",
		Paper: "Figure 4(a,b)",
		Title: "Effect of the velocity range (real data)",
		Axis:  "[v−, v+]",
		Base:  DefaultMeetupWorkload(),
		Points: rangePoints([]gen.Range{
			gen.R(0.001, 0.005), gen.R(0.005, 0.01), gen.R(0.01, 0.015),
			gen.R(0.015, 0.02), gen.R(0.02, 0.025),
		}, func(w *Workload, r gen.Range) { w.Meet.Velocity = r }),
		Algorithms: paperAllocators(),
		FullScale:  "3,525 workers / 1,282 tasks",
	}
}

func fig5() *Experiment {
	return &Experiment{
		ID:    "fig5",
		Paper: "Figure 5(a,b)",
		Title: "Effect of the start timestamp range (real data)",
		Axis:  "[st−, st+]",
		Base:  DefaultMeetupWorkload(),
		Points: rangePoints([]gen.Range{
			gen.R(0, 150), gen.R(0, 175), gen.R(0, 200), gen.R(0, 225), gen.R(0, 250),
		}, func(w *Workload, r gen.Range) { w.Meet.StartTime = r }),
		Algorithms: paperAllocators(),
		FullScale:  "3,525 workers / 1,282 tasks",
	}
}

func fig6() *Experiment {
	return &Experiment{
		ID:    "fig6",
		Paper: "Figure 6(a,b)",
		Title: "Effect of the waiting time range (real data)",
		Axis:  "[wt−, wt+]",
		Base:  DefaultMeetupWorkload(),
		Points: rangePoints([]gen.Range{
			gen.R(1, 3), gen.R(2, 4), gen.R(3, 5), gen.R(4, 6), gen.R(5, 7),
		}, func(w *Workload, r gen.Range) { w.Meet.WaitTime = r }),
		Algorithms: paperAllocators(),
		FullScale:  "3,525 workers / 1,282 tasks",
	}
}

// --- Synthetic sweeps, Figures 7–11 -------------------------------------

func fig7() *Experiment {
	return &Experiment{
		ID:    "fig7",
		Paper: "Figure 7(a,b)",
		Title: "Effect of the dependency-set size range (synthetic)",
		Axis:  "|D| range",
		Base:  DefaultSyntheticWorkload(),
		Points: rangePoints([]gen.Range{
			gen.R(0, 50), gen.R(0, 60), gen.R(0, 70), gen.R(0, 80), gen.R(0, 90),
		}, func(w *Workload, r gen.Range) { w.Syn.DepSize = r }),
		Algorithms: paperAllocators(),
		FullScale:  "5K workers / 5K tasks",
	}
}

func fig8() *Experiment {
	return &Experiment{
		ID:    "fig8",
		Paper: "Figure 8(a,b)",
		Title: "Effect of the skill-universe size (synthetic)",
		Axis:  "r",
		Base:  DefaultSyntheticWorkload(),
		Points: intPoints([]int{1100, 1300, 1500, 1700, 1900}, "%d",
			func(w *Workload, v int) { w.Syn.SkillUniverse = v }),
		Algorithms: paperAllocators(),
		FullScale:  "5K workers / 5K tasks",
	}
}

func fig9() *Experiment {
	return &Experiment{
		ID:    "fig9",
		Paper: "Figure 9(a,b)",
		Title: "Effect of the worker skill-set size range (synthetic)",
		Axis:  "[sp−, sp+]",
		Base:  DefaultSyntheticWorkload(),
		Points: rangePoints([]gen.Range{
			gen.R(1, 5), gen.R(1, 10), gen.R(1, 15), gen.R(1, 20), gen.R(1, 25),
		}, func(w *Workload, r gen.Range) { w.Syn.WorkerSkills = r }),
		Algorithms: paperAllocators(),
		FullScale:  "5K workers / 5K tasks",
	}
}

func fig10() *Experiment {
	return &Experiment{
		ID:    "fig10",
		Paper: "Figure 10(a,b)",
		Title: "Effect of the number of tasks (synthetic)",
		Axis:  "m",
		Base:  DefaultSyntheticWorkload(),
		Points: intPoints([]int{2000, 3500, 5000, 6500, 8000}, "%d",
			func(w *Workload, v int) { w.Syn.Tasks = v }),
		Algorithms: paperAllocators(),
		FullScale:  "5K workers / m tasks",
	}
}

func fig11() *Experiment {
	return &Experiment{
		ID:    "fig11",
		Paper: "Figure 11(a,b)",
		Title: "Effect of the number of workers (synthetic)",
		Axis:  "n",
		Base:  DefaultSyntheticWorkload(),
		Points: intPoints([]int{3000, 4000, 5000, 6000, 7000}, "%d",
			func(w *Workload, v int) { w.Syn.Workers = v }),
		Algorithms: paperAllocators(),
		FullScale:  "n workers / 5K tasks",
	}
}

// --- Appendix sweeps, Figures 12–15 --------------------------------------

func fig12() *Experiment {
	return &Experiment{
		ID:    "fig12",
		Paper: "Figure 12(a,b) (appendix)",
		Title: "Effect of the maximum moving distance range (synthetic)",
		Axis:  "[d−, d+]",
		Base:  DefaultSyntheticWorkload(),
		Points: rangePoints([]gen.Range{
			gen.R(0.1, 0.2), gen.R(0.2, 0.3), gen.R(0.3, 0.4),
			gen.R(0.4, 0.5), gen.R(0.5, 0.6),
		}, func(w *Workload, r gen.Range) { w.Syn.MaxDist = r }),
		Algorithms: paperAllocators(),
		FullScale:  "5K workers / 5K tasks",
	}
}

func fig13() *Experiment {
	return &Experiment{
		ID:    "fig13",
		Paper: "Figure 13(a,b) (appendix)",
		Title: "Effect of the velocity range (synthetic)",
		Axis:  "[v−, v+]",
		Base:  DefaultSyntheticWorkload(),
		Points: rangePoints([]gen.Range{
			gen.R(0.01, 0.02), gen.R(0.02, 0.03), gen.R(0.03, 0.04),
			gen.R(0.04, 0.05), gen.R(0.05, 0.06),
		}, func(w *Workload, r gen.Range) { w.Syn.Velocity = r }),
		Algorithms: paperAllocators(),
		FullScale:  "5K workers / 5K tasks",
	}
}

func fig14() *Experiment {
	return &Experiment{
		ID:    "fig14",
		Paper: "Figure 14(a,b) (appendix)",
		Title: "Effect of the start timestamp range (synthetic)",
		Axis:  "[st−, st+]",
		Base:  DefaultSyntheticWorkload(),
		Points: rangePoints([]gen.Range{
			gen.R(0, 65), gen.R(0, 70), gen.R(0, 75), gen.R(0, 80), gen.R(0, 85),
		}, func(w *Workload, r gen.Range) { w.Syn.StartTime = r }),
		Algorithms: paperAllocators(),
		FullScale:  "5K workers / 5K tasks",
	}
}

func fig15() *Experiment {
	return &Experiment{
		ID:    "fig15",
		Paper: "Figure 15(a,b) (appendix)",
		Title: "Effect of the waiting time range (synthetic)",
		Axis:  "[wt−, wt+]",
		Base:  DefaultSyntheticWorkload(),
		Points: rangePoints([]gen.Range{
			gen.R(8, 13), gen.R(9, 14), gen.R(10, 15), gen.R(11, 16), gen.R(12, 17),
		}, func(w *Workload, r gen.Range) { w.Syn.WaitTime = r }),
		Algorithms: paperAllocators(),
		FullScale:  "5K workers / 5K tasks",
	}
}

// --- Ablations of this implementation's design choices -------------------

func ablationAlpha() *Experiment {
	var algs []AllocatorSpec
	for _, alpha := range []float64{2, 5, 10, 50, 200} {
		alpha := alpha
		algs = append(algs, AllocatorSpec{
			Label: fmt.Sprintf("Game α=%g", alpha),
			Make: func(seed int64) core.Allocator {
				return core.NewGame(core.GameOptions{Seed: seed, Alpha: alpha})
			},
		})
	}
	return &Experiment{
		ID:    "ablation-alpha",
		Paper: "— (implementation ablation)",
		Title: "Sensitivity of DASC_Game to the normalisation parameter α",
		Axis:  "α",
		Base:  DefaultSyntheticWorkload(),
		Points: []Point{{
			Label: "default", Apply: func(w *Workload) {},
		}},
		Algorithms: algs,
		FullScale:  "5K workers / 5K tasks",
	}
}

func ablationMatcher() *Experiment {
	algs := []AllocatorSpec{
		{Label: "Greedy/Hungarian", Make: func(seed int64) core.Allocator {
			return core.NewGreedyOpt(core.GreedyOptions{Matcher: core.MatchHungarian})
		}},
		{Label: "Greedy/HK-only", Make: func(seed int64) core.Allocator {
			return core.NewGreedyOpt(core.GreedyOptions{Matcher: core.MatchFeasible})
		}},
	}
	return &Experiment{
		ID:    "ablation-matcher",
		Paper: "— (implementation ablation)",
		Title: "Hungarian min-travel staffing vs plain feasibility matching in DASC_Greedy",
		Axis:  "matcher kind",
		Base:  DefaultSyntheticWorkload(),
		Points: []Point{{
			Label: "default", Apply: func(w *Workload) {},
		}},
		Algorithms: algs,
		FullScale:  "5K workers / 5K tasks",
	}
}

func ablationSpatial() *Experiment {
	return &Experiment{
		ID:    "ablation-spatial",
		Paper: "— (implementation ablation)",
		Title: "Uniform locations (the paper's setting) vs clustered hotspots",
		Axis:  "#hotspots (0 = uniform)",
		Base:  DefaultSyntheticWorkload(),
		Points: intPoints([]int{0, 2, 4, 8, 16}, "%d",
			func(w *Workload, v int) { w.Syn.Hotspots = v }),
		Algorithms: paperAllocators(),
		FullScale:  "5K workers / 5K tasks",
	}
}

func ablationAugment() *Experiment {
	algs := []AllocatorSpec{
		{Label: "Greedy", Make: func(seed int64) core.Allocator { return core.NewGreedy() }},
		{Label: "Greedy+aug", Make: func(seed int64) core.Allocator { return core.NewImproved(core.NewGreedy()) }},
		{Label: "Game-5%", Make: func(seed int64) core.Allocator {
			return core.NewGame(core.GameOptions{Seed: seed, Threshold: 0.05})
		}},
		{Label: "Game-5%+aug", Make: func(seed int64) core.Allocator {
			return core.NewImproved(core.NewGame(core.GameOptions{Seed: seed, Threshold: 0.05}))
		}},
		{Label: "Random+aug", Make: func(seed int64) core.Allocator {
			return core.NewImproved(core.NewRandom(seed))
		}},
	}
	return &Experiment{
		ID:    "ablation-augment",
		Paper: "— (implementation extension)",
		Title: "Matching-augmentation post-pass on top of the paper's allocators",
		Axis:  "allocator (+aug = Improve post-pass)",
		Base:  DefaultSyntheticWorkload(),
		Points: []Point{{
			Label: "default", Apply: func(w *Workload) {},
		}},
		Algorithms: algs,
		FullScale:  "5K workers / 5K tasks",
	}
}

func ablationWeighted() *Experiment {
	base := DefaultSyntheticWorkload()
	base.WeightedScore = true
	return &Experiment{
		ID:    "ablation-weighted",
		Paper: "— (implementation extension)",
		Title: "Weighted objective Σ w_t·I(w,t) (unit weights = the paper's Equation 1)",
		Axis:  "task weight range",
		Base:  base,
		Points: rangePoints([]gen.Range{
			gen.R(1, 1), gen.R(1, 3), gen.R(1, 5), gen.R(1, 9),
		}, func(w *Workload, r gen.Range) { w.Syn.TaskWeight = r }),
		Algorithms: paperAllocators(),
		FullScale:  "5K workers / 5K tasks",
	}
}

func ablationSkillDist() *Experiment {
	return &Experiment{
		ID:    "ablation-skills",
		Paper: "— (implementation ablation)",
		Title: "Uniform skill popularity (the paper's setting) vs Zipf-distributed tags",
		Axis:  "skill distribution",
		Base:  DefaultSyntheticWorkload(),
		Points: []Point{
			{Label: "uniform", Apply: func(w *Workload) {}},
			{Label: "zipf s=1.2", Apply: func(w *Workload) { w.Syn.ZipfSkills = 1.2 }},
			{Label: "zipf s=1.5", Apply: func(w *Workload) { w.Syn.ZipfSkills = 1.5 }},
			{Label: "zipf s=2.0", Apply: func(w *Workload) { w.Syn.ZipfSkills = 2.0 }},
		},
		Algorithms: paperAllocators(),
		FullScale:  "5K workers / 5K tasks",
	}
}

func ablationOnline() *Experiment {
	return &Experiment{
		ID:    "ablation-online",
		Paper: "— (implementation extension)",
		Title: "Batch allocation (the paper's regime) vs per-arrival online matching",
		Axis:  "regime",
		Base:  DefaultSyntheticWorkload(),
		Points: []Point{
			{Label: "batch Δ=1", Apply: func(w *Workload) { w.BatchInterval = 1 }},
			{Label: "batch Δ=5", Apply: func(w *Workload) { w.BatchInterval = 5 }},
			{Label: "online", Apply: func(w *Workload) { w.Online = true }},
		},
		Algorithms: []AllocatorSpec{
			{Label: "Greedy", Make: func(seed int64) core.Allocator { return core.NewGreedy() }},
			{Label: "G-G", Make: func(seed int64) core.Allocator {
				return core.NewGame(core.GameOptions{Seed: seed, GreedyInit: true})
			}},
		},
		FullScale: "5K workers / 5K tasks",
	}
}

func ablationBatchInterval() *Experiment {
	return &Experiment{
		ID:    "ablation-batch",
		Paper: "— (implementation ablation)",
		Title: "Sensitivity to the platform batch interval",
		Axis:  "batch interval",
		Base:  DefaultSyntheticWorkload(),
		Points: intPoints([]int{1, 2, 5, 10, 20}, "Δ=%d",
			func(w *Workload, v int) { w.BatchInterval = float64(v) }),
		Algorithms: paperAllocators(),
		FullScale:  "5K workers / 5K tasks",
	}
}
