// Package gen produces the paper's workloads as seeded, deterministic
// model.Instances: the synthetic generator of Table V, the Meetup-substitute
// generator of Table IV (Section V-A's construction reproduced over a
// synthetic event-based social network, since the original crawl is not
// redistributable), and the small-scale configuration of Table VI.
package gen

import (
	"fmt"
	"math/rand"
)

// Range is a closed interval [Lo, Hi] sampled uniformly, the form every
// experimental parameter takes in Tables IV and V.
type Range struct {
	Lo, Hi float64
}

// R is shorthand for constructing a Range.
func R(lo, hi float64) Range { return Range{Lo: lo, Hi: hi} }

// Sample draws a uniform value from the range.
func (r Range) Sample(rng *rand.Rand) float64 {
	if r.Hi <= r.Lo {
		return r.Lo
	}
	return r.Lo + rng.Float64()*(r.Hi-r.Lo)
}

// SampleInt draws a uniform integer from {⌊Lo⌋, …, ⌊Hi⌋}.
func (r Range) SampleInt(rng *rand.Rand) int {
	lo, hi := int(r.Lo), int(r.Hi)
	if hi <= lo {
		return lo
	}
	return lo + rng.Intn(hi-lo+1)
}

// Scale returns the range with both endpoints multiplied by k — Tables IV
// and V express the velocity and distance ranges with such factors
// (e.g. "[1, 1.5] * 0.01").
func (r Range) Scale(k float64) Range { return Range{Lo: r.Lo * k, Hi: r.Hi * k} }

// String implements fmt.Stringer.
func (r Range) String() string { return fmt.Sprintf("[%g, %g]", r.Lo, r.Hi) }
