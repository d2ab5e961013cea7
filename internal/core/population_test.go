package core

import (
	"math"
	"reflect"
	"testing"

	"dasc/internal/model"
)

func TestPopulationAdmitsDropsAndKeepsOrder(t *testing.T) {
	// Due times by index; entries due after now wait in the queue.
	wDue := []float64{0, 0, 0, 0, 0, 3, 1, 2, 1}
	tDue := []float64{0, 0, 0, 5, math.NaN()}
	dueW := func(i int) float64 { return wDue[i] }
	dueT := func(i int) float64 { return tDue[i] }
	walk := func(visit func(keep func(i int) bool), drop func(i int) bool) []int {
		var seen []int
		visit(func(i int) bool { seen = append(seen, i); return !drop(i) })
		return seen
	}
	none := func(int) bool { return false }
	var p Population
	sc := new(admitScratch)
	p.Admit(5, 3, 0, dueW, dueT, sc)
	if seen := walk(p.Workers, func(i int) bool { return i%2 == 1 }); !reflect.DeepEqual(seen, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("first walk visited %v", seen)
	}
	// Four arrivals, all but worker 8's and task 4's due after 0; a NaN
	// due time is due.
	wDue[8] = 0
	p.Admit(9, 5, 0, dueW, dueT, sc)
	if w, tk := p.Len(); w != 7 || tk != 5 {
		t.Fatalf("Len = %d, %d; want 7, 5", w, tk)
	}
	if seen := walk(p.Tasks, none); !reflect.DeepEqual(seen, []int{0, 1, 2, 4}) {
		t.Fatalf("task walk visited %v", seen)
	}
	// Worker 6 falls due at 1 and merges in ID order; 7 and 5 wait.
	p.Admit(9, 5, 1, dueW, dueT, sc)
	if seen := walk(p.Workers, none); !reflect.DeepEqual(seen, []int{0, 2, 4, 6, 8}) {
		t.Fatalf("walk after drops and arrivals visited %v", seen)
	}
	// A woken task joins the walk at its place before it is due.
	p.Wake(3)
	p.Wake(3)
	if seen := walk(p.Tasks, func(i int) bool { return i == 1 }); !reflect.DeepEqual(seen, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("walk after a wake visited %v", seen)
	}
	p.Admit(9, 5, 3, dueW, dueT, sc)
	if seen := walk(p.Workers, none); !reflect.DeepEqual(seen, []int{0, 2, 4, 5, 6, 7, 8}) {
		t.Fatalf("walk after the last arrivals visited %v", seen)
	}
	if w, tk := p.Len(); w != 7 || tk != 4 {
		t.Fatalf("Len = %d, %d; want 7, 4", w, tk)
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
