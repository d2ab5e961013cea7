package core

import (
	"reflect"
	"testing"

	"dasc/internal/model"
)

func TestPopulationAdmitsDropsAndKeepsOrder(t *testing.T) {
	var p Population
	p.Admit(5, 3)
	var seen []int
	p.Workers(func(i int) bool { seen = append(seen, i); return i%2 == 0 })
	if !reflect.DeepEqual(seen, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("first walk visited %v", seen)
	}
	p.Admit(7, 3) // two arrivals
	seen = nil
	p.Workers(func(i int) bool { seen = append(seen, i); return true })
	if !reflect.DeepEqual(seen, []int{0, 2, 4, 5, 6}) {
		t.Fatalf("walk after drops and arrivals visited %v", seen)
	}
	p.Tasks(func(i int) bool { return i != 1 })
	if w, tk := p.Len(); w != 5 || tk != 2 {
		t.Fatalf("Len = %d, %d; want 5, 2", w, tk)
	}
}

func TestDispatchOrder(t *testing.T) {
	in := model.Example1() // t1 deps {t0}; t2 deps {t0, t1}; t4 deps {t3}
	order := func(pairs ...model.Pair) []model.Pair {
		return DispatchOrder(in, &model.Assignment{Pairs: pairs})
	}
	pr := func(w model.WorkerID, t model.TaskID) model.Pair { return model.Pair{Worker: w, Task: t} }

	// Task-sorted pairs over lower-ID dependencies come back unchanged.
	sorted := []model.Pair{pr(1, 0), pr(0, 1), pr(2, 2), pr(1, 3)}
	if got := order(sorted...); !reflect.DeepEqual(got, sorted) {
		t.Errorf("sorted input reordered: %v", got)
	}
	// A reversed list puts dependencies first and otherwise keeps order.
	got := order(pr(2, 4), pr(2, 2), pr(0, 1), pr(1, 3), pr(1, 0))
	want := []model.Pair{pr(1, 3), pr(2, 4), pr(1, 0), pr(0, 1), pr(2, 2)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reversed input: got %v, want %v", got, want)
	}
	// A task listed twice keeps both pairs, together at its first place.
	got = order(pr(0, 1), pr(2, 3), pr(1, 1), pr(1, 0))
	want = []model.Pair{pr(1, 0), pr(0, 1), pr(1, 1), pr(2, 3)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("repeated task: got %v, want %v", got, want)
	}
	if got := order(); len(got) != 0 {
		t.Errorf("empty input: %v", got)
	}
}
