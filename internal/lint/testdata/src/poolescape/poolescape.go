// Package poolescape is analyzer testdata. It models the engine cache's
// ownership shapes locally — the analyzer matches pool owners by type NAME
// (EngineCache, cachedWorker, depScratch) and slab carving by method name.
package poolescape

import "sync"

type cachedWorker struct {
	tasks []int32
	costs []float64
}

type slab struct{ buf []int32 }

func (s *slab) carveLen(n int) []int32 {
	start := len(s.buf)
	s.buf = append(s.buf, make([]int32, n)...)
	return s.buf[start : start+n]
}

type EngineCache struct {
	ids     slab
	free    []*cachedWorker
	scratch []int32
}

type BatchIndex struct {
	rows [][]int32
}

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

func CarvedTasks(c *EngineCache, n int) []int32 {
	return c.ids.carveLen(n) // want "cache-arena memory returned from exported CarvedTasks"
}

func carvedTasks(c *EngineCache, n int) []int32 {
	return c.ids.carveLen(n)
}

func sendLeak(c *EngineCache, ch chan []int32) {
	buf := c.ids.carveLen(4)
	ch <- buf // want "cache-arena memory sent on a channel"
}

func stashGlobal(c *EngineCache) {
	global = c.ids.carveLen(4) // want "cache-arena memory stored in package-level variable global"
}

func aliasIntoIndex(b *BatchIndex, cw *cachedWorker) {
	b.rows[0] = cw.tasks // want "cache-owned memory stored into non-owner structure"
}

func absorbWithoutCopy(cw *cachedWorker, foreign []int32) {
	cw.tasks = foreign // want "foreign slice/pointer stored into cache-owned field without a copy"
}

func absorbCopyAlways(c *EngineCache, cw *cachedWorker, foreign []int32) {
	// Carve owner memory, then copy: the blessed absorb shape.
	cw.tasks = c.ids.carveLen(len(foreign))
	copy(cw.tasks, foreign)
}

func FreePop(c *EngineCache) *cachedWorker {
	cw := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	return cw // want "free-list memory returned from exported FreePop"
}

func scalarReadsAreCopies(cw *cachedWorker, k int) float64 {
	// Reading an element copies the scalar; no aliasing, no finding.
	return cw.costs[k]
}

func Scratch(c *EngineCache) []int32 {
	//lint:poolescape-ok documented contract: the only caller copies before the next batch reuses the buffer
	return c.scratch
}

// depScratch models the dependency-wiring build's pooled scratch: values
// may be read out of it, but none of its slices may alias into the result.
type depScratch struct{ pos []int32 }

type depWiring struct{ depDat []int32 }

func (sc *depScratch) wire() *depWiring {
	w := &depWiring{}
	w.depDat = append(w.depDat, sc.pos[0]) // element copy: no finding
	w.depDat = sc.pos                      // want "cache-owned memory stored into non-owner structure"
	return w
}
