package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"dasc/internal/geo"
	"dasc/internal/matching"
	"dasc/internal/model"
)

// The oracles below are the map-based dependency resolution the dense
// wiring replaced, kept verbatim apart from reading the satisfied set from a
// map: a seen map deduplicates, a map answers "satisfied?" and the batch's
// pending map (TaskIndex) answers "pending where?".

func oracleWiring(b *Batch, satisfied map[model.TaskID]bool) *depWiring {
	n := len(b.Tasks)
	w := &depWiring{
		depOff:        make([]int32, n+1),
		dependantOff:  make([]int32, n+1),
		depCount:      make([]int32, n),
		deadTask:      make([]bool, n),
		satisfiedDeps: make([]int32, n),
		weight:        make([]float64, n),
	}
	seen := make(map[model.TaskID]int)
	for ti, t := range b.Tasks {
		w.weight[ti] = t.EffWeight()
		gen := ti + 1
		for _, d := range t.Deps {
			if seen[d] == gen {
				continue
			}
			seen[d] = gen
			w.depCount[ti]++
			if satisfied[d] {
				w.satisfiedDeps[ti]++
				continue
			}
			di := b.TaskIndex(d)
			if di < 0 {
				w.deadTask[ti] = true
				continue
			}
			w.depDat = append(w.depDat, int32(di))
		}
		w.depOff[ti+1] = int32(len(w.depDat))
	}
	cnt := make([]int32, n)
	for _, di := range w.depDat {
		cnt[di]++
	}
	off := int32(0)
	for ti := 0; ti < n; ti++ {
		w.dependantOff[ti] = off
		off += cnt[ti]
	}
	w.dependantOff[n] = off
	w.dependantDat = make([]int32, off)
	copy(cnt, w.dependantOff[:n])
	for ti := 0; ti < n; ti++ {
		for _, di := range w.deps(ti) {
			w.dependantDat[cnt[di]] = int32(ti)
			cnt[di]++
		}
	}
	return w
}

func oracleDepSatisfiable(b *Batch, satisfied map[model.TaskID]bool, t *model.Task) bool {
	for _, d := range t.Deps {
		if satisfied[d] {
			continue
		}
		if b.TaskIndex(d) < 0 {
			return false
		}
	}
	return true
}

func oracleAtSets(b *Batch, satisfied map[model.TaskID]bool) []*atSet {
	var sets []*atSet
	seen := make(map[int]bool)
	for ti, t := range b.Tasks {
		if !oracleDepSatisfiable(b, satisfied, t) {
			continue
		}
		s := &atSet{anchor: ti}
		clear(seen)
		seen[ti] = true
		s.members = append(s.members, ti)
		for _, d := range t.Deps {
			if satisfied[d] {
				continue
			}
			di := b.TaskIndex(d)
			if seen[di] {
				continue
			}
			seen[di] = true
			s.members = append(s.members, di)
		}
		s.alive = len(s.members)
		for _, ti := range s.members {
			s.weight += b.Tasks[ti].EffWeight()
		}
		sets = append(sets, s)
	}
	return sets
}

func oracleFixpointIndexed(b *Batch, satisfied map[model.TaskID]bool, taskOf []int32) {
	kept := make([]bool, len(b.Tasks))
	for _, ti := range taskOf {
		if ti >= 0 {
			kept[ti] = true
		}
	}
	for {
		dropped := false
		for wi, ti := range taskOf {
			if ti < 0 {
				continue
			}
			ok := true
			for _, d := range b.Tasks[ti].Deps {
				if satisfied[d] {
					continue
				}
				if di := b.TaskIndex(d); di < 0 || !kept[di] {
					ok = false
					break
				}
			}
			if !ok {
				kept[ti] = false
				taskOf[wi] = -1
				dropped = true
			}
		}
		if !dropped {
			return
		}
	}
}

// satisfiedMap lists the members of a flag set as the map the oracles read.
func satisfiedMap(f model.TaskFlags) map[model.TaskID]bool {
	m := map[model.TaskID]bool{}
	for id, set := range f {
		if set {
			m[model.TaskID(id)] = true
		}
	}
	return m
}

// checkWiring requires got to equal the oracle's wiring field by field,
// bit for bit.
func checkWiring(t *testing.T, label string, got, want *depWiring) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want []int32
	}{
		{"depOff", got.depOff, want.depOff},
		{"depDat", got.depDat, want.depDat},
		{"dependantOff", got.dependantOff, want.dependantOff},
		{"dependantDat", got.dependantDat, want.dependantDat},
		{"depCount", got.depCount, want.depCount},
		{"satisfiedDeps", got.satisfiedDeps, want.satisfiedDeps},
	} {
		if !slices.Equal(f.got, f.want) {
			t.Fatalf("%s: %s = %v, want %v", label, f.name, f.got, f.want)
		}
	}
	if !slices.Equal(got.deadTask, want.deadTask) {
		t.Fatalf("%s: deadTask = %v, want %v", label, got.deadTask, want.deadTask)
	}
	if len(got.weight) != len(want.weight) {
		t.Fatalf("%s: %d weights, want %d", label, len(got.weight), len(want.weight))
	}
	for i := range got.weight {
		if math.Float64bits(got.weight[i]) != math.Float64bits(want.weight[i]) {
			t.Fatalf("%s: weight[%d] = %v, want %v", label, i, got.weight[i], want.weight[i])
		}
	}
}

// checkAtSets requires the wiring-built associative sets to equal the
// oracle's: same anchors in the same order, same members, alive counts and
// bit-equal weights.
func checkAtSets(t *testing.T, label string, b *Batch, satisfied map[model.TaskID]bool) {
	t.Helper()
	got, want := atSets(b, nil), oracleAtSets(b, satisfied)
	if len(got) != len(want) {
		t.Fatalf("%s: %d sets, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.anchor != w.anchor || !slices.Equal(g.members, w.members) || g.alive != w.alive ||
			math.Float64bits(g.weight) != math.Float64bits(w.weight) {
			t.Fatalf("%s: set %d = %+v, want %+v", label, i, *g, *w)
		}
	}
}

// randomWiringBatch draws a batch over a random instance with transitively
// closed dependencies: a random subset of the tasks pending, in random
// order, and a random satisfied set that may overlap the pending tasks.
// With dirty set, some dependency lists are corrupted the ways Validate
// would reject — duplicates, self-dependencies, IDs beyond the instance and
// negative IDs — with a few satisfied flags beyond the instance too.
func randomWiringBatch(rng *rand.Rand, dirty bool) *Batch {
	in := randomInstance(rng, 2+rng.Intn(6), 5+rng.Intn(40), 3, true)
	n := len(in.Tasks)
	if dirty {
		for i := range in.Tasks {
			t := &in.Tasks[i]
			switch rng.Intn(6) {
			case 0:
				if len(t.Deps) > 0 {
					t.Deps = append(t.Deps, t.Deps[rng.Intn(len(t.Deps))])
				}
			case 1:
				t.Deps = append(t.Deps, t.ID)
			case 2:
				far := model.TaskID(n + rng.Intn(5))
				t.Deps = append(t.Deps, far, model.TaskID(rng.Intn(n)), far)
			case 3:
				t.Deps = append(t.Deps, -1-model.TaskID(rng.Intn(2)))
			}
		}
	}
	var tasks []*model.Task
	for _, i := range rng.Perm(n) {
		if rng.Float64() < 0.7 {
			tasks = append(tasks, &in.Tasks[i])
		}
	}
	var sat model.TaskFlags
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.25 {
			sat.Set(model.TaskID(i))
		}
	}
	if dirty && rng.Intn(2) == 0 {
		sat.Set(model.TaskID(n + rng.Intn(5)))
	}
	var bws []BatchWorker
	for i := range in.Workers {
		w := &in.Workers[i]
		bws = append(bws, BatchWorker{W: w, Loc: w.Loc, ReadyAt: 0, DistBudget: w.MaxDist})
	}
	return NewBatch(in, bws, tasks, sat)
}

// TestDepWiringMatchesMapOracle: on random batches, clean and corrupted,
// the dense wiring and the associative sets built on it equal the map-based
// resolution they replaced, and G-G's seed filter (seedFixpoint, through
// the arena's fixpoint) keeps what the map-based index fixpoint keeps.
func TestDepWiringMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1401))
	for trial := 0; trial < 300; trial++ {
		b := randomWiringBatch(rng, trial%2 == 1)
		sat := satisfiedMap(b.Satisfied)
		label := fmt.Sprintf("trial %d", trial)
		checkWiring(t, label, b.depWiring(), oracleWiring(b, sat))
		checkAtSets(t, label, b, sat)

		taskOf := make([]int32, len(b.Workers))
		for wi := range taskOf {
			taskOf[wi] = -1
			if len(b.Tasks) > 0 && rng.Float64() < 0.8 {
				taskOf[wi] = int32(rng.Intn(len(b.Tasks)))
			}
		}
		want := slices.Clone(taskOf)
		oracleFixpointIndexed(b, sat, want)
		seedFixpoint(b, taskOf)
		if !slices.Equal(taskOf, want) {
			t.Fatalf("%s: fixpoint kept %v, want %v", label, taskOf, want)
		}
	}
}

// TestDepWiringHandBuilt pins the corner cases only instances that bypass
// Validate reach, each against the oracle and against its expected reading.
func TestDepWiringHandBuilt(t *testing.T) {
	task := func(id int, deps ...model.TaskID) model.Task {
		return model.Task{ID: model.TaskID(id), Loc: geo.Pt(0, 0), Wait: 10, Deps: deps}
	}
	in := &model.Instance{Tasks: []model.Task{
		task(0),
		task(1, 0, 0),          // duplicate dependency
		task(2, 2),             // self-dependency
		task(3, 99),            // dependency beyond the instance
		task(4, 5, 0),          // 5 is pending and satisfied
		task(5),                //
		task(6, 7, 99, 99, -1), // 7 satisfied, not pending; repeats beyond range
		task(7),                // not pending
		task(8, 1<<20, 1<<20),  // far beyond the instance, satisfied
	}}
	var tasks []*model.Task
	for i := range in.Tasks {
		if i != 7 {
			tasks = append(tasks, &in.Tasks[i])
		}
	}
	var sat model.TaskFlags
	sat.Set(5)
	sat.Set(7)
	sat.Set(1 << 20)
	b := NewBatch(in, nil, tasks, sat)
	w := b.depWiring()
	checkWiring(t, "hand-built", w, oracleWiring(b, satisfiedMap(sat)))
	checkAtSets(t, "hand-built", b, satisfiedMap(sat))

	idx := func(id int) int { return b.TaskIndex(model.TaskID(id)) }
	for _, c := range []struct {
		id               int
		count, satisfied int32
		dead             bool
		deps             []int32
		reason           string
	}{
		{1, 1, 0, false, []int32{int32(idx(0))}, "a duplicate counts once"},
		{2, 1, 0, false, []int32{int32(idx(2))}, "a self-dependency is a pending dependency"},
		{3, 1, 0, true, nil, "a dependency beyond the instance is dead"},
		{4, 2, 1, false, []int32{int32(idx(0))}, "satisfied wins over pending"},
		{6, 3, 1, true, nil, "distinct IDs beyond range count once each"},
		{8, 1, 1, false, nil, "a satisfied ID beyond the instance is met"},
	} {
		ti := idx(c.id)
		if w.depCount[ti] != c.count || w.satisfiedDeps[ti] != c.satisfied || w.deadTask[ti] != c.dead ||
			!slices.Equal(w.deps(ti), c.deps) {
			t.Errorf("t%d (%s): count %d satisfied %d dead %v deps %v", c.id, c.reason,
				w.depCount[ti], w.satisfiedDeps[ti], w.deadTask[ti], w.deps(ti))
		}
	}
}

// TestDepWiringScratchReuse drives one step arena through many unrelated
// batches, with stale stamps from every earlier batch in its task table,
// and then wraps fresh arenas' stamps right after a first batch: the wrap
// must clear the tags, or the first batch's pending marks would match the
// restarted stamps. Every batch's TaskIndex must agree with a map built
// over its tasks.
func TestDepWiringScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(1402))
	check := func(label string, a *stepArena, src *Batch) *Batch {
		b := a.newBatch(src.In, src.Workers, src.Tasks, src.Satisfied)
		checkWiring(t, label, b.depWiring(), oracleWiring(b, satisfiedMap(b.Satisfied)))
		pending := map[model.TaskID]int{}
		for i, tk := range b.Tasks {
			pending[tk.ID] = i
		}
		for id := model.TaskID(-1); int(id) <= len(b.In.Tasks); id++ {
			want, ok := pending[id]
			if !ok || id < 0 {
				want = -1
			}
			if got := b.TaskIndex(id); got != want {
				t.Fatalf("%s: TaskIndex(%d) = %d, want %d", label, id, got, want)
			}
		}
		return b
	}
	a := new(stepArena)
	for trial := 0; trial < 100; trial++ {
		check(fmt.Sprintf("trial %d", trial), a, randomWiringBatch(rng, trial%3 == 0))
	}
	for trial := 0; trial < 50; trial++ {
		a := new(stepArena)
		for k, dirty := range []bool{false, trial%2 == 0} {
			b := check(fmt.Sprintf("wrap trial %d build %d", trial, k), a, randomWiringBatch(rng, dirty))
			if k == 1 && len(b.Tasks) > 0 && a.taskIDs.next != 2*uint32(len(b.Tasks))+1 {
				t.Fatalf("wrap trial %d: next stamp %d after the wrap, want a fresh range", trial, a.taskIDs.next)
			}
			a.taskIDs.next = math.MaxUint32 // no batch with a pending task fits its stamps
		}
	}
}

// TestDepWiringScratchCoversInstance: the arena's task tags cover every
// task of the instance, not just the pending ones, so valid dependencies on
// higher-numbered tasks that are not pending (forward references, as a
// loaded dataset may have) deduplicate through their tag, never by a scan.
func TestDepWiringScratchCoversInstance(t *testing.T) {
	task := func(id int, deps ...model.TaskID) model.Task {
		return model.Task{ID: model.TaskID(id), Loc: geo.Pt(0, 0), Wait: 10, Deps: deps}
	}
	in := &model.Instance{Tasks: []model.Task{
		task(0, 5, 3, 6),
		task(1, 0, 4, 5, 3),
		task(2),
		task(3),
		task(4),
		task(5),
		task(6),
	}}
	var sat model.TaskFlags
	sat.Set(4)
	b := NewBatch(in, nil, []*model.Task{&in.Tasks[1], &in.Tasks[0]}, sat)
	checkWiring(t, "forward references", b.depWiring(), oracleWiring(b, satisfiedMap(sat)))
	sc := &b.arena.taskIDs
	if len(sc.tag) != len(in.Tasks) {
		t.Fatalf("scratch tags cover %d task IDs, want the instance's %d", len(sc.tag), len(in.Tasks))
	}
	if sc.next != 2*uint32(len(b.Tasks))+1 {
		t.Fatalf("next stamp %d after a fresh arena's first batch, want %d", sc.next, 2*len(b.Tasks)+1)
	}
}

// TestDepWiringConcurrentScratch builds wirings from many goroutines at
// once, each over a batch with a step arena of its own, and requires every
// result to equal the oracle: no package-level scratch is shared by two
// builds.
func TestDepWiringConcurrentScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(1403))
	const nBatches = 24
	batches := make([]*Batch, nBatches)
	want := make([]*depWiring, nBatches)
	for i := range batches {
		batches[i] = randomWiringBatch(rng, i%2 == 1)
		want[i] = oracleWiring(batches[i], satisfiedMap(batches[i].Satisfied))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*nBatches)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*nBatches; k++ {
				i := (g*7 + k*5) % nBatches
				src := batches[i]
				b := NewBatch(src.In, src.Workers, src.Tasks, src.Satisfied) // fresh arena
				got := b.depWiring()
				if !slices.Equal(got.depDat, want[i].depDat) || !slices.Equal(got.depCount, want[i].depCount) ||
					!slices.Equal(got.deadTask, want[i].deadTask) || !slices.Equal(got.dependantDat, want[i].dependantDat) {
					errs <- fmt.Sprintf("goroutine %d: batch %d wiring differs from the oracle", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// oracleStaff is Greedy.staff as it was with maps keyed by batch-worker
// index (colOf, keep, colIdx), the oracle for the stamped column scratch.
// k is the per-task column budget: maxCandidatesPerTask as staff trims, or
// the batch's worker count to keep every free candidate.
func oracleStaff(g *Greedy, k int, b *Batch, members []int, candidates [][]int32, workerFree []bool) ([]int, bool) {
	colOf := make(map[int]int)
	var cols []int
	bg := matching.NewBipartite(len(members), 0)
	for row, ti := range members {
		for _, w := range candidates[ti] {
			wi := int(w)
			if !workerFree[wi] {
				continue
			}
			ci, ok := colOf[wi]
			if !ok {
				ci = len(cols)
				colOf[wi] = ci
				cols = append(cols, wi)
			}
			bg.Adj[row] = append(bg.Adj[row], ci)
		}
	}
	bg.N = len(cols)
	matchL, size := bg.MaxMatchingHK()
	if size != len(members) {
		return nil, false
	}
	staffHK := func() []int {
		staff := make([]int, len(members))
		for row := range members {
			staff[row] = cols[matchL[row]]
		}
		return staff
	}
	if g.opt.Matcher == MatchFeasible {
		return staffHK(), true
	}
	idx := b.Index()
	keep := make(map[int]bool)
	for row := range members {
		keep[cols[matchL[row]]] = true
	}
	type cand struct {
		wi   int
		cost float64
	}
	for _, ti := range members {
		var cs []cand
		for _, w := range candidates[ti] {
			if wi := int(w); workerFree[wi] {
				cs = append(cs, cand{wi, idx.TravelCost(wi, ti)})
			}
		}
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].cost != cs[j].cost {
				return cs[i].cost < cs[j].cost
			}
			return cs[i].wi < cs[j].wi
		})
		for i := 0; i < len(cs) && i < k; i++ {
			keep[cs[i].wi] = true
		}
	}
	trimmed := make([]int, 0, len(keep))
	for wi := range keep {
		trimmed = append(trimmed, wi)
	}
	sort.Ints(trimmed)
	colIdx := make(map[int]int, len(trimmed))
	for i, wi := range trimmed {
		colIdx[wi] = i
	}
	cost := make([][]float64, len(members))
	for row, ti := range members {
		cost[row] = make([]float64, len(trimmed))
		for i := range cost[row] {
			cost[row][i] = matching.Forbidden
		}
		for _, w := range candidates[ti] {
			wi := int(w)
			if !workerFree[wi] {
				continue
			}
			ci, kept := colIdx[wi]
			if !kept {
				continue
			}
			cost[row][ci] = idx.TravelCost(wi, ti)
		}
	}
	assign, _, err := matching.Hungarian(cost)
	if err != nil {
		return staffHK(), true
	}
	staff := make([]int, len(members))
	for row := range members {
		staff[row] = trimmed[assign[row]]
	}
	return staff, true
}

// TestGreedyStaffMatchesMapOracle runs the stamped staff and the map-based
// oracle side by side on every associative set of random batches, under
// random worker availability and every matcher, with one column scratch
// reused across all calls of a batch (as assignIndices does) and, halfway,
// pushed to the edge of its value range.
func TestGreedyStaffMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1404))
	for trial := 0; trial < 60; trial++ {
		// Up to 64 workers over two skills: many tasks have more free
		// candidates than the trim keeps.
		in := randomInstance(rng, 4+rng.Intn(60), 4+rng.Intn(30), 2, true)
		b := NewStaticBatch(in)
		candidates := make([][]int32, len(b.Tasks))
		for ti := range b.Tasks {
			candidates[ti] = b.Index().CandidateSet(ti)
		}
		if trial%2 == 1 {
			b.arena.greedy.cols.next = math.MaxUint32 - uint32(len(b.Workers)) - 1
		}
		for _, s := range atSets(b, nil) {
			free := make([]bool, len(b.Workers))
			for wi := range free {
				free[wi] = rng.Float64() < 0.8
			}
			for _, m := range []MatcherKind{MatchHungarian, MatchFeasible} {
				g := NewGreedyOpt(GreedyOptions{Matcher: m})
				got, gotOK := g.staff(b, s.members, candidates, free)
				want, wantOK := oracleStaff(g, maxCandidatesPerTask, b, s.members, candidates, free)
				if gotOK != wantOK || !slices.Equal(got, want) {
					t.Fatalf("trial %d anchor %d matcher %d: staff %v %v, want %v %v",
						trial, s.anchor, m, got, gotOK, want, wantOK)
				}
			}
		}
	}
}
