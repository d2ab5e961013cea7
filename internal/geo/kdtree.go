package geo

import (
	"math"
	"sort"
)

// KDTree is an immutable 2-d tree built once over a point set. It answers
// nearest-neighbour queries, needs no bounding box up front and degrades
// gracefully on clustered data; the road network snaps points to its nodes
// with it.
type KDTree struct {
	nodes []kdNode
	root  int32
}

type kdNode struct {
	pt          Point
	id          int32
	left, right int32 // -1 = none
	axis        uint8 // 0 = X, 1 = Y
}

// KDItem pairs an item ID with its location for bulk tree construction.
type KDItem struct {
	ID int
	Pt Point
}

// NewKDTree builds a balanced tree over items in O(n log² n).
// The input slice is not modified.
func NewKDTree(items []KDItem) *KDTree {
	t := &KDTree{nodes: make([]kdNode, 0, len(items)), root: -1}
	work := make([]KDItem, len(items))
	copy(work, items)
	t.root = t.build(work, 0)
	return t
}

// Len returns the number of points in the tree.
func (t *KDTree) Len() int { return len(t.nodes) }

func (t *KDTree) build(items []KDItem, depth int) int32 {
	if len(items) == 0 {
		return -1
	}
	axis := uint8(depth % 2)
	sort.Slice(items, func(i, j int) bool {
		if axis == 0 {
			return items[i].Pt.X < items[j].Pt.X
		}
		return items[i].Pt.Y < items[j].Pt.Y
	})
	mid := len(items) / 2
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, kdNode{
		pt:   items[mid].Pt,
		id:   int32(items[mid].ID),
		axis: axis,
		left: -1, right: -1,
	})
	left := t.build(items[:mid], depth+1)
	right := t.build(items[mid+1:], depth+1)
	t.nodes[idx].left = left
	t.nodes[idx].right = right
	return idx
}

// Nearest returns the ID of the point closest to q and its distance.
// ok is false for an empty tree.
func (t *KDTree) Nearest(q Point) (id int, dist float64, ok bool) {
	if t.root < 0 {
		return 0, 0, false
	}
	bestID := int32(-1)
	bestSq := math.Inf(1)
	t.nearest(t.root, q, &bestID, &bestSq)
	return int(bestID), math.Sqrt(bestSq), true
}

func (t *KDTree) nearest(ni int32, q Point, bestID *int32, bestSq *float64) {
	if ni < 0 {
		return
	}
	n := &t.nodes[ni]
	d := n.pt.SqDistanceTo(q)
	if d < *bestSq || (d == *bestSq && n.id < *bestID) {
		*bestSq, *bestID = d, n.id
	}
	var qc, nc float64
	if n.axis == 0 {
		qc, nc = q.X, n.pt.X
	} else {
		qc, nc = q.Y, n.pt.Y
	}
	near, far := n.left, n.right
	if qc > nc {
		near, far = far, near
	}
	t.nearest(near, q, bestID, bestSq)
	if diff := qc - nc; diff*diff <= *bestSq {
		t.nearest(far, q, bestID, bestSq)
	}
}
