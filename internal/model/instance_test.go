package model

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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
	g, err := in.DepGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsTransitivelyClosed() {
		t.Error("Example1 deps not closed")
	}
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
	}
	for i, tc := range cases {
		in := Example1()
		tc.mutate(in)
		if err := in.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("case %d: err = %v, want %q", i, err, tc.want)
		}
	}
}

// TestValidateCycleWitnessMatchesDepGraph draws random dependency lists
// with cycles and requires Validate's witness to be the one FindCycle
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
		want := g.FindCycle()
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

func TestCloseDeps(t *testing.T) {
	in := Example1()
	// Break the closure: t3 only lists t2 directly.
	in.Tasks[2].Deps = []TaskID{1}
	if err := in.CloseDeps(); err != nil {
		t.Fatal(err)
	}
	if got := in.Tasks[2].Deps; !reflect.DeepEqual(got, []TaskID{0, 1}) {
		t.Errorf("closed deps = %v", got)
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

func TestCandidateIndexExample1(t *testing.T) {
	in := Example1()
	ci := NewCandidateIndex(in)
	// w1 holds {ψ1, ψ2} → tasks t1 (ψ1) and t2 (ψ2).
	if got := ci.TasksFor(in.Worker(0)); !reflect.DeepEqual(got, []TaskID{0, 1}) {
		t.Errorf("TasksFor(w1) = %v", got)
	}
	// w2 holds {ψ4} → only t4.
	if got := ci.TasksFor(in.Worker(1)); !reflect.DeepEqual(got, []TaskID{3}) {
		t.Errorf("TasksFor(w2) = %v", got)
	}
	// w3 holds {ψ1, ψ2, ψ3} → t1, t2, t3, t5.
	if got := ci.TasksFor(in.Worker(2)); !reflect.DeepEqual(got, []TaskID{0, 1, 2, 4}) {
		t.Errorf("TasksFor(w3) = %v", got)
	}
	// t3 requires ψ3 → only w3.
	if got := ci.WorkersFor(in.Task(2)); !reflect.DeepEqual(got, []WorkerID{2}) {
		t.Errorf("WorkersFor(t3) = %v", got)
	}
	// t1 requires ψ1 → w1 and w3.
	if got := ci.WorkersFor(in.Task(0)); !reflect.DeepEqual(got, []WorkerID{0, 2}) {
		t.Errorf("WorkersFor(t1) = %v", got)
	}
}

func TestCandidateIndexHonoursConstraints(t *testing.T) {
	in := Example1()
	// Shrink w3's range so it can only reach t3 at (5,2) from (5,3).
	in.Workers[2].MaxDist = 1.0
	ci := NewCandidateIndex(in)
	if got := ci.TasksFor(in.Worker(2)); !reflect.DeepEqual(got, []TaskID{2}) {
		t.Errorf("TasksFor(w3 short range) = %v", got)
	}
}

func TestCandidateIndexTasksNear(t *testing.T) {
	in := Example1()
	ci := NewCandidateIndex(in)
	got := ci.TasksNear(geo.Pt(2, 2), 1.5)
	// Tasks within 1.5 of (2,2): t2 at (2,2), t5 at (1,2).
	if !reflect.DeepEqual(got, []TaskID{1, 4}) {
		t.Errorf("TasksNear = %v", got)
	}
}

func TestCandidateIndexEmptyInstance(t *testing.T) {
	ci := NewCandidateIndex(&Instance{})
	w := baseWorker()
	if got := ci.TasksFor(&w); len(got) != 0 {
		t.Errorf("TasksFor on empty = %v", got)
	}
}
