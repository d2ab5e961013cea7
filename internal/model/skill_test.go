package model

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestSkillSetBasics(t *testing.T) {
	var s SkillSet
	if !s.IsEmpty() || s.Len() != 0 {
		t.Error("zero value should be empty")
	}
	s.Add(3)
	s.Add(70) // second word
	s.Add(3)  // duplicate
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if !s.Has(3) || !s.Has(70) || s.Has(4) || s.Has(-1) {
		t.Error("Has wrong")
	}
	s.Remove(3)
	if s.Has(3) || s.Len() != 1 {
		t.Error("Remove failed")
	}
	s.Remove(999) // out of range no-op
	s.Remove(-5)
}

func TestSkillSetOps(t *testing.T) {
	a := NewSkillSet(1, 2, 65)
	b := NewSkillSet(2, 3)
	if !a.Equal(NewSkillSet(65, 2, 1)) {
		t.Error("Equal order-sensitive")
	}
	if a.Equal(b) {
		t.Error("Equal false positive")
	}
	// Equal must ignore trailing zero words.
	c := NewSkillSet(1, 200)
	c.Remove(200)
	if !c.Equal(NewSkillSet(1)) {
		t.Error("Equal tripped by trailing zero words")
	}
}

func TestSkillSetAppendTo(t *testing.T) {
	buf := []Skill{7}
	buf = NewSkillSet(130, 0, 64, 3).AppendTo(buf)
	if !reflect.DeepEqual(buf, []Skill{7, 0, 3, 64, 130}) {
		t.Errorf("AppendTo = %v", buf)
	}
	if got := (SkillSet{}).AppendTo(buf[:0]); len(got) != 0 {
		t.Errorf("empty AppendTo = %v", got)
	}
}

func TestSkillSetString(t *testing.T) {
	if got := NewSkillSet(2, 10, 1).String(); got != "{ψ1, ψ2, ψ10}" {
		t.Errorf("String = %q", got)
	}
	if got := (SkillSet{}).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

// TestSkillSetModelProperty cross-checks the bitset against a map-based
// reference model under random operation sequences.
func TestSkillSetModelProperty(t *testing.T) {
	type op struct {
		Add   bool
		Skill uint8
	}
	f := func(ops []op) bool {
		var s SkillSet
		ref := map[Skill]bool{}
		for _, o := range ops {
			sk := Skill(o.Skill)
			if o.Add {
				s.Add(sk)
				ref[sk] = true
			} else {
				s.Remove(sk)
				delete(ref, sk)
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		for sk := range ref {
			if !s.Has(sk) {
				return false
			}
		}
		for _, sk := range s.Skills() {
			if !ref[sk] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSkillNames(t *testing.T) {
	r := NewSkillNames()
	plumbing := r.MustIntern("plumbing")
	painting := r.MustIntern("painting")
	if plumbing != 0 || painting != 1 {
		t.Errorf("ids = %d, %d", plumbing, painting)
	}
	// Idempotent.
	if again := r.MustIntern("plumbing"); again != plumbing {
		t.Errorf("re-intern = %d", again)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
	if id, ok := r.Lookup("painting"); !ok || id != painting {
		t.Errorf("Lookup = %d, %v", id, ok)
	}
	if _, ok := r.Lookup("welding"); ok {
		t.Error("unknown name found")
	}
	if got := r.Name(plumbing); got != "plumbing" {
		t.Errorf("Name = %q", got)
	}
	if got := r.Name(99); got != "ψ99" {
		t.Errorf("unknown Name = %q", got)
	}
	if _, err := r.Intern(""); err == nil {
		t.Error("empty name accepted")
	}
	set, err := r.Set("painting", "welding")
	if err != nil {
		t.Fatal(err)
	}
	if !set.Has(painting) || set.Len() != 2 {
		t.Errorf("Set = %v", set)
	}
	if got := r.Describe(set); got != "{painting, welding}" {
		t.Errorf("Describe = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustIntern(\"\") did not panic")
		}
	}()
	r.MustIntern("")
}

// TestSkillSetNextCommonProperty: walking NextCommon from 0 visits exactly
// the skills both sets hold, ascending, from any starting skill; Max is the last
// member of Skills.
func TestSkillSetNextCommonProperty(t *testing.T) {
	f := func(as, bs []uint8, from int8) bool {
		var a, b SkillSet
		for _, x := range as {
			a.Add(Skill(x))
		}
		for _, x := range bs {
			b.Add(Skill(x) / 2) // overlap a's low half more often
		}
		var want []Skill
		for _, sk := range a.Skills() {
			if sk >= Skill(from) && b.Has(sk) {
				want = append(want, sk)
			}
		}
		var got []Skill
		for sk := a.NextCommon(b, Skill(from)); sk >= 0; sk = a.NextCommon(b, sk+1) {
			got = append(got, sk)
		}
		if !reflect.DeepEqual(got, want) {
			return false
		}
		wantMax := Skill(-1)
		if all := a.Skills(); len(all) > 0 {
			wantMax = all[len(all)-1]
		}
		return a.Max() == wantMax
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if got := NewSkillSet(3, 64).NextCommon(NewSkillSet(3), 4); got != -1 {
		t.Errorf("NextCommon past the shorter set = %d, want -1", got)
	}
	if got := NewSkillSet(1, 70).NextCommon(NewSkillSet(1, 70), 2); got != 70 {
		t.Errorf("NextCommon across a word boundary = %d, want 70", got)
	}
}

// TestSkillSetClearAndBound: Add grows the words to a high skill in one
// step, Clear empties the set without keeping any old skill, and CheckSkill
// admits exactly [0, MaxSkill].
func TestSkillSetClearAndBound(t *testing.T) {
	s := NewSkillSet(3, MaxSkill)
	if !s.Has(MaxSkill) || !s.Has(3) || s.Len() != 2 || s.Max() != MaxSkill {
		t.Fatalf("set %v: want {3, %d}", s, MaxSkill)
	}
	s.Clear()
	if !s.IsEmpty() || s.Has(3) || s.Has(MaxSkill) {
		t.Fatalf("cleared set still holds %v", s)
	}
	s.Add(200)
	if s.Len() != 1 || !s.Has(200) || s.Has(MaxSkill) {
		t.Fatalf("set after Clear and Add(200): %v", s)
	}
	for sk, ok := range map[Skill]bool{-1: false, 0: true, MaxSkill: true, MaxSkill + 1: false, 1 << 30: false} {
		if err := CheckSkill(sk); (err == nil) != ok {
			t.Errorf("CheckSkill(%d) = %v", sk, err)
		}
	}
}
