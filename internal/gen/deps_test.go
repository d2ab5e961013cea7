package gen

import (
	"math/rand"
	"slices"
	"testing"

	"dasc/internal/model"
)

// scriptedSource serves forced Uint32 values at chosen draw indices and a
// seeded source's values elsewhere, counting the draws it serves.
type scriptedSource struct {
	base   rand.Source
	forced map[int]uint32
	draws  int
}

func (s *scriptedSource) Int63() int64 {
	k := s.draws
	s.draws++
	if v, ok := s.forced[k]; ok {
		return int64(v) << 31 // Rand.Uint32 is Int63() >> 31
	}
	return s.base.Int63()
}

func (s *scriptedSource) Seed(seed int64) { s.base.Seed(seed) }

// shufflesAgree shuffles 0..n−1 with rand.Shuffle over a recording swap and
// with shuffleTaskIDs, each from a fresh source scripted by forced, and
// fails unless the permutations, the draw counts and the next Int63 agree.
// It returns the draws the shuffle took.
func shufflesAgree(t *testing.T, seed int64, n int, forced map[int]uint32) int {
	t.Helper()
	identity := func() []model.TaskID {
		a := make([]model.TaskID, n)
		for i := range a {
			a[i] = model.TaskID(i)
		}
		return a
	}
	srcA := &scriptedSource{base: rand.NewSource(seed), forced: forced}
	rngA := rand.New(srcA)
	want := identity()
	rngA.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })

	srcB := &scriptedSource{base: rand.NewSource(seed), forced: forced}
	rngB := rand.New(srcB)
	got := identity()
	shuffleTaskIDs(rngB, got)

	if !slices.Equal(got, want) {
		t.Errorf("seed %d n %d: permutation differs from rand.Shuffle", seed, n)
	}
	draws := srcB.draws
	if srcA.draws != draws {
		t.Errorf("seed %d n %d: %d draws, rand.Shuffle took %d", seed, n, draws, srcA.draws)
	}
	if a, b := rngA.Int63(), rngB.Int63(); a != b {
		t.Errorf("seed %d n %d: next Int63 %d, after rand.Shuffle %d", seed, n, b, a)
	}
	return draws
}

func TestDepShuffleMatchesRandShuffle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, n := range []int{0, 1, 2, 3, 71, 8000} {
			shufflesAgree(t, seed, n, nil)
		}
	}

	// A zero draw gives a zero low half, below 2³² mod n for every n that
	// is not a power of two: the first step of n = 3 (2³² mod 3 = 1)
	// rejects it and redraws.
	if d := shufflesAgree(t, 1, 3, map[int]uint32{0: 0}); d != 3 {
		t.Errorf("n 3 with one forced rejection took %d draws, want 3", d)
	}
	// Two rejections in a row at the first step of n = 8000, and single
	// ones deep into the shuffle (draws 1000 and 5000 fall on bounds 7002
	// and 3002).
	forced := map[int]uint32{0: 0, 1: 0, 1000: 0, 5000: 0}
	if d := shufflesAgree(t, 4, 8000, forced); d != 7999+len(forced) {
		t.Errorf("n 8000 with %d forced rejections took %d draws, want %d", len(forced), d, 7999+len(forced))
	}
	// The rejection boundary at the first step of n = 71: a low half of
	// 2³² mod 71 − 1 is redrawn, a low half of exactly 2³² mod 71 is kept.
	n := 71
	un := uint32(n)
	thresh := -un % un
	inv := un // n⁻¹ mod 2³² by Newton's iteration (n is odd)
	for range 5 {
		inv *= 2 - un*inv
	}
	lowIs := func(low uint32) uint32 { return low * inv } // v with uint32(v·n) = low
	if d := shufflesAgree(t, 7, n, map[int]uint32{0: lowIs(thresh - 1), 1: lowIs(thresh)}); d != n {
		t.Errorf("n %d at the rejection boundary took %d draws, want %d", n, d, n)
	}
}
