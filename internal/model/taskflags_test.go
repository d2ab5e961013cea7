package model

import "testing"

func TestTaskFlags(t *testing.T) {
	var f TaskFlags
	for _, id := range []TaskID{-1, 0, 5, 1 << 20} {
		if f.Has(id) {
			t.Errorf("empty set has t%d", id)
		}
	}
	f.Set(5)
	if len(f) != 6 {
		t.Errorf("Set(5) grew the set to %d flags, want 6", len(f))
	}
	f.Set(2)
	if len(f) != 6 {
		t.Errorf("Set(2) resized a covering set to %d flags", len(f))
	}
	for id := TaskID(-3); id < 10; id++ {
		want := id == 2 || id == 5
		if got := f.Has(id); got != want {
			t.Errorf("Has(t%d) = %v, want %v", id, got, want)
		}
	}
	f.Set(5) // idempotent
	if !f.Has(5) || len(f) != 6 {
		t.Error("setting a member again changed the set")
	}
}

// TestTaskFlagsMatchesMap sets a scattered sequence of IDs and checks every
// ID in and around the range against the map the type replaces.
func TestTaskFlagsMatchesMap(t *testing.T) {
	var f TaskFlags
	ref := map[TaskID]bool{}
	for i := 0; i < 500; i++ {
		id := TaskID((i * 7919) % 1013)
		f.Set(id)
		ref[id] = true
	}
	for id := TaskID(-5); id < 1100; id++ {
		if f.Has(id) != ref[id] {
			t.Fatalf("Has(t%d) = %v, map says %v", id, f.Has(id), ref[id])
		}
	}
}
