package geo

import "math"

// GridIndex is a uniform-cell spatial hash over a fixed bounding box. It
// answers radius queries in time proportional to the number of cells the
// query disc touches, which makes it the workhorse for "which tasks can this
// worker reach" lookups where the radius is the worker's maximum moving
// distance.
//
// Items are the dense indexes 0..n-1 of the points the index is built over,
// so the index stores no payloads. The cells are one CSR table: cell c holds
// ids[off[c]:off[c+1]], ascending, with their points alongside in pts. Reset
// rebuilds the table in place, so an index rebuilt for every batch reuses
// its arrays once they have grown to the largest batch.
type GridIndex struct {
	box        BBox
	cellSize   float64
	cols, rows int
	off        []int32 // cell -> start of its run in ids/pts; off[cells] = n
	ids        []int32 // item indexes in cell order
	pts        []Point // ids' points, aligned
}

// NewGridIndex returns an index over pts (item i at pts[i]) within box with
// approximately targetCells cells (minimum 1). A good default for n uniformly
// distributed points is targetCells ≈ n.
func NewGridIndex(box BBox, targetCells int, pts []Point) *GridIndex {
	g := new(GridIndex)
	g.Reset(box, targetCells, pts)
	return g
}

// Reset rebuilds the index in place over pts, as NewGridIndex would. Points
// outside the box are clamped to the border cell, so they remain findable by
// sufficiently large radius queries. The index keeps no reference to pts.
func (g *GridIndex) Reset(box BBox, targetCells int, pts []Point) {
	if targetCells < 1 {
		targetCells = 1
	}
	w, h := box.Width(), box.Height()
	// A box flat in one axis (collinear points) gets that side floored at
	// one cell of the other, so the grid becomes one strip of ≈targetCells
	// cells; a tiny fixed floor would instead shrink the cell and blow the
	// cell count up as √(side·targetCells/floor).
	switch {
	case w <= 0 && h <= 0:
		w, h = 1e-9, 1e-9
	case w <= 0:
		w = h / float64(targetCells)
	case h <= 0:
		h = w / float64(targetCells)
	}
	// Choose a square-ish cell so cols*rows ≈ targetCells.
	cell := math.Sqrt(w * h / float64(targetCells))
	if cell <= 0 || math.IsNaN(cell) {
		cell = math.Max(w, h)
	}
	cols := int(math.Ceil(w / cell))
	rows := int(math.Ceil(h / cell))
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	g.box, g.cellSize, g.cols, g.rows = box, cell, cols, rows

	// Count cell c into off[c+2], so the prefix sum leaves cell c's start in
	// off[c+1] and the fill, bumping off[c+1] as a cursor, ends with it at
	// cell c's end. Filling in ascending item order keeps each cell
	// ascending.
	cells := cols * rows
	g.off = grown(g.off, cells+2)
	clear(g.off)
	for _, p := range pts {
		g.off[g.cellOf(p)+2]++
	}
	for c := 2; c < len(g.off); c++ {
		g.off[c] += g.off[c-1]
	}
	g.ids = grown(g.ids, len(pts))
	g.pts = grown(g.pts, len(pts))
	for i, p := range pts {
		c := g.cellOf(p) + 1
		k := g.off[c]
		g.ids[k], g.pts[k] = int32(i), p
		g.off[c]++
	}
	g.off = g.off[:cells+1]
}

// grown returns s resliced to n, at least doubling its capacity when it is
// short; the contents are unspecified.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

func (g *GridIndex) cellOf(p Point) int {
	cx := int((p.X - g.box.Min.X) / g.cellSize)
	cy := int((p.Y - g.box.Min.Y) / g.cellSize)
	cx = clampInt(cx, 0, g.cols-1)
	cy = clampInt(cy, 0, g.rows-1)
	return cy*g.cols + cx
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Within appends to dst the IDs of all items at Euclidean distance ≤ r from
// center and returns the extended slice. Order is unspecified.
func (g *GridIndex) Within(center Point, r float64, dst []int) []int {
	if r < 0 || len(g.ids) == 0 {
		return dst
	}
	r2 := r * r
	minCX := clampInt(int((center.X-r-g.box.Min.X)/g.cellSize), 0, g.cols-1)
	maxCX := clampInt(int((center.X+r-g.box.Min.X)/g.cellSize), 0, g.cols-1)
	minCY := clampInt(int((center.Y-r-g.box.Min.Y)/g.cellSize), 0, g.rows-1)
	maxCY := clampInt(int((center.Y+r-g.box.Min.Y)/g.cellSize), 0, g.rows-1)
	for cy := minCY; cy <= maxCY; cy++ {
		// The cells of one row are contiguous in the table.
		lo, hi := g.off[cy*g.cols+minCX], g.off[cy*g.cols+maxCX+1]
		for k := lo; k < hi; k++ {
			if g.pts[k].SqDistanceTo(center) <= r2 {
				dst = append(dst, int(g.ids[k]))
			}
		}
	}
	return dst
}
