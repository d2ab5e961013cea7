// Package model defines the DA-SC domain objects from Section II of the
// paper — heterogeneous workers (Definition 1), dependency-aware spatial
// tasks (Definition 2) — together with the feasibility predicates encoding
// the four constraints of Definition 3 and whole-assignment validation.
package model

import (
	"fmt"
	"math/bits"
	"strings"
)

// Skill identifies one ability ψ in the skill universe Ψ. Skills are dense
// integers in [0, r).
type Skill int32

// MaxSkill is the highest skill a worker may hold. A SkillSet costs one bit
// per skill up to its highest, so the decoders reject a worker skill above
// it (or below zero) before building one: an unbounded skill would let one
// registration size a set by its value (skill 2^30 took about a second and
// over 128 MB). At 2^20 a set costs at most 128 KiB, and the bound lies far
// above every generated universe (synthetic 1500, meetup 400, the skill
// sweeps of Figure 8) and above the ~700K distinct skills the journal's
// long-line replay test registers.
const MaxSkill Skill = 1 << 20

// CheckSkill returns an error naming sk when it is negative or above
// MaxSkill, the skills no SkillSet is built for.
func CheckSkill(sk Skill) error {
	switch {
	case sk < 0:
		return fmt.Errorf("negative skill %d", sk)
	case sk > MaxSkill:
		return fmt.Errorf("skill %d above the maximum %d", sk, MaxSkill)
	}
	return nil
}

// SkillSet is a bitset over the skill universe. The synthetic workloads use
// universes up to ~2000 skills and workers holding ≤ 30 of them, so a packed
// bitset keeps the per-worker membership test at a couple of instructions.
type SkillSet struct {
	words []uint64
}

// NewSkillSet returns a set containing the given skills.
func NewSkillSet(skills ...Skill) SkillSet {
	var s SkillSet
	for _, sk := range skills {
		s.Add(sk)
	}
	return s
}

// Add inserts sk into the set. Negative skills panic.
func (s *SkillSet) Add(sk Skill) {
	if sk < 0 {
		panic(fmt.Sprintf("model: negative skill %d", sk))
	}
	w := int(sk) / 64
	if w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
	s.words[w] |= 1 << (uint(sk) % 64)
}

// Clear empties the set, keeping its storage for the skills added next.
func (s *SkillSet) Clear() {
	s.words = s.words[:0]
}

// Remove deletes sk from the set; removing an absent skill is a no-op.
func (s *SkillSet) Remove(sk Skill) {
	w := int(sk) / 64
	if sk < 0 || w >= len(s.words) {
		return
	}
	s.words[w] &^= 1 << (uint(sk) % 64)
}

// Has reports whether sk is in the set.
func (s SkillSet) Has(sk Skill) bool {
	w := int(sk) / 64
	if sk < 0 || w >= len(s.words) {
		return false
	}
	return s.words[w]&(1<<(uint(sk)%64)) != 0
}

// Len returns the number of skills in the set.
func (s SkillSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set holds no skills.
func (s SkillSet) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether the two sets hold exactly the same skills.
func (s SkillSet) Equal(o SkillSet) bool {
	long, short := s.words, o.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i := range short {
		if long[i] != short[i] {
			return false
		}
	}
	for i := len(short); i < len(long); i++ {
		if long[i] != 0 {
			return false
		}
	}
	return true
}

// Max returns the highest skill in the set, or -1 when the set is empty.
func (s SkillSet) Max() Skill {
	for wi := len(s.words) - 1; wi >= 0; wi-- {
		if w := s.words[wi]; w != 0 {
			return Skill(wi*64 + 63 - bits.LeadingZeros64(w))
		}
	}
	return -1
}

// NextCommon returns the smallest skill at or above from that both s and o
// hold, or -1 when there is none. It does not allocate, so the loop
//
//	for sk := s.NextCommon(o, 0); sk >= 0; sk = s.NextCommon(o, sk+1)
//
// walks the intersection in ascending order without building it.
func (s SkillSet) NextCommon(o SkillSet, from Skill) Skill {
	if from < 0 {
		from = 0
	}
	n := min(len(s.words), len(o.words))
	wi := int(from) / 64
	if wi >= n {
		return -1
	}
	w := s.words[wi] & o.words[wi] &^ (uint64(1)<<(uint(from)%64) - 1)
	for w == 0 {
		wi++
		if wi >= n {
			return -1
		}
		w = s.words[wi] & o.words[wi]
	}
	return Skill(wi*64 + bits.TrailingZeros64(w))
}

// Skills returns the members in ascending order.
func (s SkillSet) Skills() []Skill { return s.AppendTo(make([]Skill, 0, s.Len())) }

// AppendTo appends the members to dst in ascending order and returns the
// extended slice; with a reused dst it walks the set without allocating.
func (s SkillSet) AppendTo(dst []Skill) []Skill {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, Skill(wi*64+b))
			w &= w - 1
		}
	}
	return dst
}

// String implements fmt.Stringer, e.g. "{ψ1, ψ4}". Skills appear in
// ascending numeric order.
func (s SkillSet) String() string {
	skills := s.Skills()
	parts := make([]string, len(skills))
	for i, sk := range skills {
		parts[i] = fmt.Sprintf("ψ%d", sk)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
