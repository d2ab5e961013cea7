package geo

import "math"

// GridIndex is a uniform-cell spatial hash over a fixed bounding box. It
// answers radius queries in time proportional to the number of cells the
// query disc touches, which makes it the workhorse for "which tasks can this
// worker reach" lookups where the radius is the worker's maximum moving
// distance.
//
// Items are identified by small dense integer IDs chosen by the caller
// (worker/task indexes), so the index stores no payloads.
type GridIndex struct {
	box        BBox
	cellSize   float64
	cols, rows int
	cells      [][]int32 // cell -> item IDs
	points     []Point   // id -> location (sparse IDs allowed; grown on demand)
	present    []bool
	count      int
}

// NewGridIndex creates an index over box with approximately targetCells cells
// (minimum 1). A good default for n uniformly distributed points is
// targetCells ≈ n.
func NewGridIndex(box BBox, targetCells int) *GridIndex {
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
	return &GridIndex{
		box:      box,
		cellSize: cell,
		cols:     cols,
		rows:     rows,
		cells:    make([][]int32, cols*rows),
	}
}

// Len returns the number of items currently in the index.
func (g *GridIndex) Len() int { return g.count }

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

// Insert adds item id at location p. Points outside the index box are clamped
// to the border cell, so they remain findable by sufficiently large radius
// queries. Inserting an existing id is a no-op on membership but updates its
// location only via Remove+Insert.
func (g *GridIndex) Insert(id int, p Point) {
	for id >= len(g.points) {
		g.points = append(g.points, Point{})
		g.present = append(g.present, false)
	}
	if g.present[id] {
		return
	}
	g.points[id] = p
	g.present[id] = true
	c := g.cellOf(p)
	g.cells[c] = append(g.cells[c], int32(id))
	g.count++
}

// Remove deletes item id from the index. Removing an absent id is a no-op.
func (g *GridIndex) Remove(id int) {
	if id < 0 || id >= len(g.present) || !g.present[id] {
		return
	}
	c := g.cellOf(g.points[id])
	bucket := g.cells[c]
	for i, v := range bucket {
		if int(v) == id {
			bucket[i] = bucket[len(bucket)-1]
			g.cells[c] = bucket[:len(bucket)-1]
			break
		}
	}
	g.present[id] = false
	g.count--
}

// Contains reports whether item id is in the index.
func (g *GridIndex) Contains(id int) bool {
	return id >= 0 && id < len(g.present) && g.present[id]
}

// Within appends to dst the IDs of all items at Euclidean distance ≤ r from
// center and returns the extended slice. Order is unspecified.
func (g *GridIndex) Within(center Point, r float64, dst []int) []int {
	if r < 0 || g.count == 0 {
		return dst
	}
	r2 := r * r
	minCX := clampInt(int((center.X-r-g.box.Min.X)/g.cellSize), 0, g.cols-1)
	maxCX := clampInt(int((center.X+r-g.box.Min.X)/g.cellSize), 0, g.cols-1)
	minCY := clampInt(int((center.Y-r-g.box.Min.Y)/g.cellSize), 0, g.rows-1)
	maxCY := clampInt(int((center.Y+r-g.box.Min.Y)/g.cellSize), 0, g.rows-1)
	for cy := minCY; cy <= maxCY; cy++ {
		for cx := minCX; cx <= maxCX; cx++ {
			for _, id := range g.cells[cy*g.cols+cx] {
				if g.points[id].SqDistanceTo(center) <= r2 {
					dst = append(dst, int(id))
				}
			}
		}
	}
	return dst
}
