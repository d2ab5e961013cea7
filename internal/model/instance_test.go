package model

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dasc/internal/dag"
	"dasc/internal/geo"
)

func TestExample1Valid(t *testing.T) {
	in := Example1()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(in.Workers) != 3 || len(in.Tasks) != 5 {
		t.Fatalf("sizes %d/%d", len(in.Workers), len(in.Tasks))
	}
	st := in.ComputeStats()
	if st.RootTasks != 2 || st.MaxDepSetSize != 2 || st.CriticalPathLength != 2 {
		t.Errorf("stats = %+v", st)
	}
	// Dependencies are already transitively closed.
	if !depsClosed(in.Tasks) {
		t.Error("Example1 deps not closed")
	}
	// Break the closure: t3 lists only t2, not t2's dependency t1.
	in.Tasks[2].Deps = []TaskID{1}
	if depsClosed(in.Tasks) {
		t.Error("t3 → t2 → t1 with t3 lacking t1 reported closed")
	}
}

// depsClosed reports whether every task's dependency list holds the
// dependencies of each task it lists: the transitive-closure invariant the
// allocators and the kernel's retirement walk rely on.
func depsClosed(tasks []Task) bool {
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

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Instance)
		want   string
	}{
		{"bad worker id", func(in *Instance) { in.Workers[1].ID = 7 }, "has ID"},
		{"negative wait", func(in *Instance) { in.Workers[0].Wait = -1 }, "negative parameter"},
		{"no skills", func(in *Instance) { in.Workers[0].Skills = SkillSet{} }, "no skills"},
		{"bad task id", func(in *Instance) { in.Tasks[2].ID = 9 }, "has ID"},
		{"negative task wait", func(in *Instance) { in.Tasks[0].Wait = -2 }, "negative waiting"},
		{"unknown dep", func(in *Instance) { in.Tasks[1].Deps = []TaskID{99} }, "unknown task"},
		{"self dep", func(in *Instance) { in.Tasks[1].Deps = []TaskID{1} }, "itself"},
		{"dup dep", func(in *Instance) { in.Tasks[1].Deps = []TaskID{0, 0} }, "twice"},
	}
	for _, tc := range cases {
		in := Example1()
		tc.mutate(in)
		err := in.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateCycle(t *testing.T) {
	in := Example1()
	in.Tasks[0].Deps = []TaskID{2} // t1 → t3 while t3 → t1
	err := in.Validate()
	if !errors.Is(err, dag.ErrCycle) {
		t.Errorf("err = %v, want ErrCycle", err)
	}
}

// TestValidateMessagesExact pins Validate's full error text, cycle witness
// included, for duplicate and cyclic dependency lists (strings captured from
// the map-and-scan implementation the stamped checks replaced).
func TestValidateMessagesExact(t *testing.T) {
	cases := []struct {
		mutate func(*Instance)
		want   string
	}{
		{func(in *Instance) { in.Tasks[0].Deps = []TaskID{2} },
			"model: dependency cycle [2 0]: dag: dependency cycle detected"},
		{func(in *Instance) { in.Tasks[1].Deps = []TaskID{0, 2} },
			"model: dependency cycle [2 1]: dag: dependency cycle detected"},
		{func(in *Instance) { in.Tasks[3].Deps = []TaskID{4}; in.Tasks[4].Deps = []TaskID{3, 3} },
			"model: task t4 lists dependency t3 twice"},
		{func(in *Instance) { in.Tasks[2].Deps = []TaskID{0, 1, 0} },
			"model: task t2 lists dependency t0 twice"},
		// Only t0's dependency names a higher ID; the cycle runs through it.
		{func(in *Instance) { in.Tasks[3].Deps = []TaskID{2}; in.Tasks[0].Deps = []TaskID{3} },
			"model: dependency cycle [3 2 0]: dag: dependency cycle detected"},
	}
	for i, tc := range cases {
		in := Example1()
		tc.mutate(in)
		if err := in.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("case %d: err = %v, want %q", i, err, tc.want)
		}
	}
}

// TestValidateAcceptsHigherIDDependency: a dependency on a higher ID is no
// cycle by itself; Validate searches and finds none.
func TestValidateAcceptsHigherIDDependency(t *testing.T) {
	in := Example1()
	in.Tasks[0].Deps = []TaskID{3}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateCycleWitnessMatchesDepGraph draws random dependency lists
// with cycles and requires Validate's witness to be the one FindCycleIn
// returns on the instance's DepGraph, the graph Validate used to build.
func TestValidateCycleWitnessMatchesDepGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(25)
		in := &Instance{}
		for i := 0; i < n; i++ {
			task := Task{ID: TaskID(i), Wait: 1}
			for _, d := range rng.Perm(n)[:min(n, rng.Intn(4))] {
				if d != i {
					task.Deps = append(task.Deps, TaskID(d))
				}
			}
			in.Tasks = append(in.Tasks, task)
		}
		g, err := in.DepGraph()
		if err != nil {
			t.Fatal(err)
		}
		want := dag.FindCycleIn(g.Len(), g.Deps)
		err = in.Validate()
		if want == nil {
			if err != nil {
				t.Fatalf("trial %d: acyclic lists rejected: %v", trial, err)
			}
			continue
		}
		if msg := fmt.Sprintf("model: dependency cycle %v: %v", want, dag.ErrCycle); err == nil || err.Error() != msg {
			t.Fatalf("trial %d: err = %v, want %q", trial, err, msg)
		}
	}
}

func TestLookupOutOfRange(t *testing.T) {
	in := Example1()
	if in.Worker(-1) != nil || in.Worker(99) != nil {
		t.Error("out-of-range Worker not nil")
	}
	if in.Task(-1) != nil || in.Task(99) != nil {
		t.Error("out-of-range Task not nil")
	}
	if in.Worker(0) == nil || in.Task(4) == nil {
		t.Error("in-range lookup nil")
	}
}

func TestDistanceDefault(t *testing.T) {
	in := &Instance{}
	d := in.Distance()
	if d(geo.Pt(0, 0), geo.Pt(3, 4)) != 5 {
		t.Error("default metric is not Euclidean")
	}
	in.Dist = geo.Manhattan
	if in.Distance()(geo.Pt(0, 0), geo.Pt(3, 4)) != 7 {
		t.Error("custom metric ignored")
	}
}
