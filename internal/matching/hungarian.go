package matching

import (
	"errors"
	"math"
)

// ErrInfeasible is returned by Hungarian when no complete assignment of rows
// to columns exists under the given cost matrix (all completions touch a
// forbidden cell).
var ErrInfeasible = errors.New("matching: no feasible complete assignment")

// Forbidden marks a row/column pair that must not be matched. Any cost at or
// above Forbidden/2 is treated as forbidden. The sentinel is large enough to
// dominate any realistic travel cost yet small enough that sums of a few
// sentinels stay finite inside the potential updates.
const Forbidden = 1e15

// Hungarian solves the rectangular minimum-cost assignment problem with the
// Jonker-style O(n²·m) shortest-augmenting-path formulation of the
// Kuhn–Munkres algorithm. cost[i][j] is the cost of assigning row i to
// column j; len(cost) rows must be ≤ len(cost[0]) columns (pad or transpose
// otherwise). It returns assign with assign[i] = column of row i, and the
// total cost. Rows and columns are fully assigned; if that is impossible
// because of Forbidden entries, ErrInfeasible is returned.
//
// In DASC_Greedy the rows are the tasks of one associative task set, the
// columns are candidate workers and the costs are travel times, so the chosen
// worker set is the cheapest complete staffing.
func Hungarian(cost [][]float64) (assign []int, total float64, err error) {
	return new(Workspace).Hungarian(cost)
}

// Hungarian is the package-level Hungarian on the workspace's arrays; the
// returned assign is the workspace's.
func (ws *Workspace) Hungarian(cost [][]float64) (assign []int, total float64, err error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, nil
	}
	m := len(cost[0])
	if n > m {
		return nil, 0, errors.New("matching: more rows than columns")
	}
	for i := range cost {
		if len(cost[i]) != m {
			return nil, 0, errors.New("matching: ragged cost matrix")
		}
	}

	const unassigned = 0
	// 1-based potentials as in the classic formulation.
	u := grown(ws.u, n+1)
	v := grown(ws.v, m+1)
	p := grown(ws.p, m+1) // p[j] = row assigned to column j (1-based); 0 = none
	way := grown(ws.way, m+1)
	minv := grown(ws.minv, m+1)
	used := grown(ws.used, m+1)
	ws.u, ws.v, ws.p, ws.way, ws.minv, ws.used = u, v, p, way, minv, used
	clear(u)
	clear(v)
	clear(p)
	clear(way)

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = math.Inf(1)
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := -1
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			if j1 < 0 || math.IsInf(delta, 1) {
				return nil, 0, ErrInfeasible
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == unassigned {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	assign = grown(ws.assign, n)
	ws.assign = assign
	for i := range assign {
		assign[i] = -1
	}
	for j := 1; j <= m; j++ {
		if p[j] != unassigned {
			assign[p[j]-1] = j - 1
		}
	}
	for i, j := range assign {
		if j < 0 {
			return nil, 0, ErrInfeasible
		}
		c := cost[i][j]
		if c >= Forbidden/2 {
			return nil, 0, ErrInfeasible
		}
		total += c
	}
	return assign, total, nil
}
