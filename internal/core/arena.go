package core

// slab is a bump allocator that carves exact-length slices out of large
// blocks, so a build that used to pay one heap allocation per worker pays
// one per block instead (O(goroutines + pairs/slabBlock) for a whole
// batch). A slab is single-owner: every build goroutine carries its own.
//
// Ownership of the carved memory follows the carved slices, not the slab:
// blocks stay reachable exactly as long as something holds a slice into
// them, so a slab can be dropped without invalidating what it handed out.
// Carved slices are capped with a three-index expression, so appending to
// one can never bleed into its neighbour.
type slab[T any] struct {
	buf []T
	// carved and allocd count elements handed out vs. freshly allocated in
	// blocks, for the arena-economy observability counters.
	carved int64
	allocd int64
}

// slabBlock is the minimum block size in elements. Large enough that a
// 10k-worker batch opens a handful of blocks, small enough that the tail
// waste of an almost-full block stays in the tens of kilobytes.
const slabBlock = 4096

// carve copies src into memory carved from the current block, opening a
// new one when the remainder is too small; an empty src returns nil.
func (s *slab[T]) carve(src []T) []T {
	n := len(src)
	if n == 0 {
		return nil
	}
	if cap(s.buf)-len(s.buf) < n {
		blk := slabBlock
		if n > blk {
			blk = n
		}
		s.buf = make([]T, 0, blk)
		s.allocd += int64(blk)
	}
	off := len(s.buf)
	s.buf = s.buf[:off+n]
	s.carved += int64(n)
	dst := s.buf[off : off+n : off+n]
	copy(dst, src)
	return dst
}

// buildScratch is the per-goroutine working state of an index build: the
// strategy set and cost row under construction (reused worker to worker),
// the grid radius-query buffer, the co-sorting view, and the slabs the
// finished rows are carved into. The sorter lives here so sort.Sort
// receives a pointer that is already heap-resident instead of boxing a
// fresh interface value per worker.
type buildScratch struct {
	grid   []int
	set    []int32
	costs  []float64
	sorter strategyByIndex
	ints   slab[int32]
	floats slab[float64]
}

// flushArena publishes the scratch's arena economy to the batch recorder
// (bytes carved into the index vs. bytes of fresh block allocations) and
// zeroes the counters so a reused scratch doesn't double-report.
func (sc *buildScratch) flushArena(b *Batch) {
	carved := sc.ints.carved*4 + sc.floats.carved*8
	allocd := sc.ints.allocd*4 + sc.floats.allocd*8
	if carved != 0 || allocd != 0 {
		b.rec.AddArenaBytes(carved, allocd)
	}
	sc.ints.carved, sc.ints.allocd = 0, 0
	sc.floats.carved, sc.floats.allocd = 0, 0
}

// sortStrategy sorts the scratch's set/costs pair ascending by task index.
func (sc *buildScratch) sortStrategy() {
	sc.sorter.set, sc.sorter.costs = sc.set, sc.costs
	sortStrategyByIndex(&sc.sorter)
	sc.sorter.set, sc.sorter.costs = nil, nil
}
