// Package poolescape is analyzer testdata. It models pooled-memory
// ownership shapes locally — the analyzer matches pool owners by type NAME
// (depScratch, prunedScan) and slab carving by method name.
package poolescape

import "sync"

type slab struct{ buf []int32 }

func (s *slab) carveLen(n int) []int32 {
	start := len(s.buf)
	s.buf = append(s.buf, make([]int32, n)...)
	return s.buf[start : start+n]
}

// depScratch models an owner with a slab arena, a free list of recycled
// structs and scratch tables: values may be read out of it, but none of
// its memory may alias into a result.
type depScratch struct {
	ids     slab
	free    []*prunedScan
	scratch []int32
	tag     []uint32
	pos     []int32
}

// prunedScan models an owner with aliasing fields: nothing it holds may
// alias into the index.
type prunedScan struct {
	tasks []int32
	costs []float64
	pos   []uint32
}

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

func CarvedTasks(sc *depScratch, n int) []int32 {
	return sc.ids.carveLen(n) // want "slab-arena memory returned from exported CarvedTasks"
}

func carvedTasks(sc *depScratch, n int) []int32 {
	return sc.ids.carveLen(n)
}

func sendLeak(sc *depScratch, ch chan []int32) {
	buf := sc.ids.carveLen(4)
	ch <- buf // want "slab-arena memory sent on a channel"
}

func stashGlobal(sc *depScratch) {
	global = sc.ids.carveLen(4) // want "slab-arena memory stored in package-level variable global"
}

func aliasIntoIndex(b *BatchIndex, ps *prunedScan) {
	b.rows[0] = ps.tasks // want "pool-owned memory stored into non-owner structure"
}

func copyInWithoutCopy(ps *prunedScan, foreign []int32) {
	ps.tasks = foreign // want "foreign slice/pointer stored into pool-owned field without a copy"
}

func copyInAlways(sc *depScratch, ps *prunedScan, foreign []int32) {
	// Carve owner memory, then copy: the blessed copy-in shape.
	ps.tasks = sc.ids.carveLen(len(foreign))
	copy(ps.tasks, foreign)
}

func FreePop(sc *depScratch) *prunedScan {
	ps := sc.free[len(sc.free)-1]
	sc.free = sc.free[:len(sc.free)-1]
	return ps // want "free-list memory returned from exported FreePop"
}

func scalarReadsAreCopies(ps *prunedScan, k int) float64 {
	// Reading an element copies the scalar; no aliasing, no finding.
	return ps.costs[k]
}

func Scratch(sc *depScratch) []int32 {
	//lint:poolescape-ok documented contract: the only caller copies before the next batch reuses the buffer
	return sc.scratch
}

func (sc *depScratch) wire() *depWiring {
	w := &depWiring{}
	w.depDat = append(w.depDat, sc.pos[0]) // element copy: no finding
	w.depDat = sc.pos                      // want "pool-owned memory stored into non-owner structure"
	return w
}

func (sc *depScratch) view() prunedScan {
	var ps prunedScan
	ps.pos = sc.tag // owner to owner: no finding
	return ps
}

func leakView(b *BatchIndex, ps prunedScan) {
	b.tags = ps.pos // want "pool-owned memory stored into non-owner structure"
}
