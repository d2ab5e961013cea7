// Package poolescape is analyzer testdata. It models pooled-memory
// ownership shapes locally — the analyzer matches pool owners by type NAME
// (stepArena).
package poolescape

import "sync"

// stepArena models the batch step arena: an owner with a free list of
// recycled structs and scratch tables, all reused by the next step.
// Values may be read out of it, but none of its memory may alias into a
// result, a package variable or the exported surface.
type stepArena struct {
	workers []int32
	free    []*scanRow
	scratch []int32
	tag     []uint32
	pos     []int32
	tasks   []int32
	costs   []float64
}

// scanRow is a recycled struct on the arena's free list.
type scanRow struct{ tasks []int32 }

type BatchIndex struct {
	rows [][]int32
	tags []uint32
}

type depWiring struct{ depDat []int32 }

type state struct{ buf []byte }

var statePool = sync.Pool{New: func() any { return new(state) }}

var global []int32

func Borrow() *state {
	return statePool.Get().(*state) // want "sync.Pool memory returned from exported Borrow"
}

func borrow() *state {
	// Unexported acquire helpers are the blessed borrow idiom.
	return statePool.Get().(*state)
}

func sendLeak(sc *stepArena, ch chan []int32) {
	buf := sc.scratch[:4]
	ch <- buf // want "pool-owned memory sent on a channel"
}

func aliasIntoIndex(b *BatchIndex, a *stepArena) {
	b.rows[0] = a.tasks // want "pool-owned memory stored into non-owner structure"
}

func copyInWithoutCopy(a *stepArena, foreign []int32) {
	a.tasks = foreign // want "foreign slice/pointer stored into pool-owned field without a copy"
}

func copyInAlways(a *stepArena, foreign []int32) {
	// Fresh memory, then copy: the blessed copy-in shape.
	a.tasks = make([]int32, len(foreign))
	copy(a.tasks, foreign)
}

func FreePop(sc *stepArena) *scanRow {
	r := sc.free[len(sc.free)-1]
	sc.free = sc.free[:len(sc.free)-1]
	return r // want "free-list memory returned from exported FreePop"
}

func scalarReadsAreCopies(a *stepArena, k int) float64 {
	// Reading an element copies the scalar; no aliasing, no finding.
	return a.costs[k]
}

func Scratch(sc *stepArena) []int32 {
	//lint:poolescape-ok documented contract: the only caller copies before the next batch reuses the buffer
	return sc.scratch
}

func (sc *stepArena) wire() *depWiring {
	w := &depWiring{}
	w.depDat = append(w.depDat, sc.pos[0]) // element copy: no finding
	w.depDat = sc.pos                      // want "pool-owned memory stored into non-owner structure"
	return w
}

func StepWorkers(a *stepArena) []int32 {
	return a.workers // want "pool-owned memory returned from exported StepWorkers"
}

func stepWorkers(a *stepArena) []int32 {
	// Unexported: the package's own batch code reads the arena.
	return a.workers
}

func keepWorkers(a *stepArena) {
	global = a.workers[:1] // want "pool-owned memory stored in package-level variable global"
}

func (sc *stepArena) view() stepArena {
	var v stepArena
	v.tag = sc.tag // owner to owner: no finding
	return v
}

func leakView(b *BatchIndex, v stepArena) {
	b.tags = v.tag // want "pool-owned memory stored into non-owner structure"
}
