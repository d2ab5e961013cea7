package model

import (
	"strings"
	"testing"
)

// paperOptimal is the dependency-aware allocation of Figure 1(c):
// w1→t1, w3→t2 … actually the paper assigns each worker one task so that all
// dependencies of assigned tasks are satisfied: (w1,t1), (w3,t2), (w2,t4).
func paperOptimal() *Assignment {
	a := NewAssignment()
	a.Add(0, 0) // w1 → t1
	a.Add(2, 1) // w3 → t2
	a.Add(1, 3) // w2 → t4
	return a
}

// paperNaive is the dependency-oblivious nearest assignment of Figure 1(b):
// (w1,t2), (w2,t4), (w3,t3). Only t4 is valid.
func paperNaive() *Assignment {
	a := NewAssignment()
	a.Add(0, 1) // w1 → t2 (invalid: t1 unassigned)
	a.Add(1, 3) // w2 → t4
	a.Add(2, 2) // w3 → t3 (invalid: t1, t2 unassigned)
	return a
}

func TestExample1OptimalValidates(t *testing.T) {
	in := Example1()
	a := paperOptimal()
	if err := a.Validate(in, ValidationOptions{}); err != nil {
		t.Fatalf("paper optimal rejected: %v", err)
	}
	if a.Size() != 3 {
		t.Errorf("Size = %d", a.Size())
	}
}

func TestExample1NaiveScoresOne(t *testing.T) {
	in := Example1()
	a := paperNaive()
	if err := a.Validate(in, ValidationOptions{}); err == nil {
		t.Fatal("naive assignment should violate dependency constraint")
	}
	// Only (w2,t4) is valid on its own: t2 and t3 wait on unassigned t1.
	valid := 0
	for _, p := range a.Pairs {
		one := NewAssignment()
		one.Add(p.Worker, p.Task)
		if one.Validate(in, ValidationOptions{}) == nil {
			valid++
			if p.Task != 3 {
				t.Errorf("pair %v validates alone", p)
			}
		}
	}
	if valid != 1 {
		t.Errorf("%d pairs valid alone, want 1 (only t4)", valid)
	}
}

func TestValidateExclusivity(t *testing.T) {
	in := Example1()
	a := NewAssignment()
	a.Add(0, 0)
	a.Add(0, 3) // same worker twice
	if err := a.Validate(in, ValidationOptions{}); err == nil || !strings.Contains(err.Error(), "worker w0 assigned twice") {
		t.Errorf("err = %v", err)
	}
	b := NewAssignment()
	b.Add(0, 0)
	b.Add(2, 0) // same task twice
	if err := b.Validate(in, ValidationOptions{}); err == nil || !strings.Contains(err.Error(), "task t0 assigned twice") {
		t.Errorf("err = %v", err)
	}
}

func TestValidateSkill(t *testing.T) {
	in := Example1()
	a := NewAssignment()
	a.Add(1, 0) // w2 {ψ4} on t1 (ψ1)
	if err := a.Validate(in, ValidationOptions{}); err == nil || !strings.Contains(err.Error(), "lacks skill") {
		t.Errorf("err = %v", err)
	}
}

func TestValidateUnknownIDs(t *testing.T) {
	in := Example1()
	a := NewAssignment()
	a.Add(99, 0)
	if err := a.Validate(in, ValidationOptions{}); err == nil || !strings.Contains(err.Error(), "unknown worker") {
		t.Errorf("err = %v", err)
	}
	b := NewAssignment()
	b.Add(0, 99)
	if err := b.Validate(in, ValidationOptions{}); err == nil || !strings.Contains(err.Error(), "unknown task") {
		t.Errorf("err = %v", err)
	}
}

func TestSatisfiedDependencies(t *testing.T) {
	in := Example1()
	// Assign only t2; its dependency t1 was completed in an earlier batch.
	a := NewAssignment()
	a.Add(2, 1) // w3 → t2
	if err := a.Validate(in, ValidationOptions{}); err == nil {
		t.Fatal("unsatisfied dependency accepted")
	}
	opt := ValidationOptions{Satisfied: map[TaskID]bool{0: true}}
	if err := a.Validate(in, opt); err != nil {
		t.Errorf("pre-satisfied dependency rejected: %v", err)
	}
}

func TestAssignmentAccessors(t *testing.T) {
	a := paperOptimal()
	a.Sort()
	ts := a.TaskSet()
	if len(ts) != 3 || !ts[0] || !ts[1] || !ts[3] {
		t.Errorf("TaskSet = %v", ts)
	}
	if s := a.String(); !strings.Contains(s, "(w0,t0)") {
		t.Errorf("String = %q", s)
	}
}

func TestAssignmentSortDeterminism(t *testing.T) {
	a := NewAssignment()
	a.Add(2, 4)
	a.Add(0, 1)
	a.Add(1, 3)
	a.Sort()
	want := []Pair{{0, 1}, {1, 3}, {2, 4}}
	for i, p := range a.Pairs {
		if p != want[i] {
			t.Fatalf("Sort order = %v", a.Pairs)
		}
	}
}
