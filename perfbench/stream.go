package main

import (
	"math"
	"math/rand"
	"strconv"
	"time"

	"dasc/internal/geo"
	"dasc/internal/model"
)

// Registration stream parameters. Table V's per-entity ranges (waits,
// velocities, moving budgets, the [0, 0.5]² region) with a skill universe
// scaled to a few hundred active workers, so a tick staffs a steady fraction
// of its pending tasks.
const (
	skillUniverse = 40
	maxWorkerSkl  = 4
	taskFrac      = 0.25 // share of registrations that are tasks
	depFrac       = 0.3  // share of tasks that depend on recent tasks
	maxDeps       = 2
	depWindow     = 16 // deps are drawn from this many most recent root tasks
)

// reg is one generated registration. Dependencies are kept as positions
// back into the issuing connection's recent root tasks and resolved to IDs
// when the request goes out, because IDs are only known once earlier
// registrations are acknowledged.
type reg struct {
	worker  bool
	x, y    float64
	start   float64
	wait    float64
	vel     float64
	maxDist float64
	skills  []model.Skill
	needs   model.Skill
	depBack []int

	due  time.Duration // open-loop send time (measured phase only)
	tick int           // index of the first tick the registration is visible to
}

// logicalTime maps a tick index to the logical time it runs at. History
// chunks run below logicalBase; the steady stream's ticks run from it.
const logicalBase = 1000

func logicalTime(tick int) float64 { return float64(logicalBase + tick) }

func genReg(rng *rand.Rand, tick int, wait float64) reg {
	r := reg{
		worker: rng.Float64() >= taskFrac,
		x:      rng.Float64() * 0.5,
		y:      rng.Float64() * 0.5,
		tick:   tick,
		start:  logicalTime(tick),
		wait:   wait,
	}
	if wait == 0 {
		r.wait = 10 + 5*rng.Float64()
	}
	if r.worker {
		r.vel = 0.03 + 0.01*rng.Float64()
		r.maxDist = 0.3 + 0.1*rng.Float64()
		n := 1 + rng.Intn(maxWorkerSkl)
		seen := map[model.Skill]bool{}
		for len(r.skills) < n {
			s := model.Skill(rng.Intn(skillUniverse))
			if !seen[s] {
				seen[s] = true
				r.skills = append(r.skills, s)
			}
		}
		return r
	}
	r.needs = model.Skill(rng.Intn(skillUniverse))
	if rng.Float64() < depFrac {
		for n := 1 + rng.Intn(maxDeps); n > 0; n-- {
			r.depBack = append(r.depBack, 1+rng.Intn(depWindow))
		}
	}
	return r
}

// poisson draws a Poisson(lambda) count (Knuth; lambda is small here).
func poisson(rng *rand.Rand, lambda float64) int {
	l, k, p := math.Exp(-lambda), 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// conn tracks one client connection's task history so dependency picks
// resolve the same way on every run, whatever IDs the server hands out.
type conn struct {
	roots []model.TaskID // tasks registered without dependencies, oldest first
}

// deps resolves r's dependency picks to registered task IDs (duplicates and
// picks beyond the known roots are dropped).
func (c *conn) deps(r *reg) []model.TaskID {
	var out []model.TaskID
	for _, back := range r.depBack {
		if back > len(c.roots) {
			continue
		}
		id := c.roots[len(c.roots)-back]
		dup := false
		for _, d := range out {
			dup = dup || d == id
		}
		if !dup {
			out = append(out, id)
		}
	}
	return out
}

// acked records the ID the platform gave a registration.
func (c *conn) acked(r *reg, id int, deps []model.TaskID) {
	if !r.worker && len(deps) == 0 {
		c.roots = append(c.roots, model.TaskID(id))
		if len(c.roots) > 4*depWindow {
			c.roots = append(c.roots[:0], c.roots[len(c.roots)-depWindow:]...)
		}
	}
}

func (c *conn) clone() *conn {
	return &conn{roots: append([]model.TaskID(nil), c.roots...)}
}

func (r *reg) modelWorker() model.Worker {
	return model.Worker{
		Loc: geo.Pt(r.x, r.y), Start: r.start, Wait: r.wait,
		Velocity: r.vel, MaxDist: r.maxDist, Skills: model.NewSkillSet(r.skills...),
	}
}

func (r *reg) modelTask(deps []model.TaskID) model.Task {
	return model.Task{Loc: geo.Pt(r.x, r.y), Start: r.start, Wait: r.wait, Requires: r.needs, Deps: deps}
}

// body encodes r as the JSON body of POST /v1/workers or /v1/tasks.
func (r *reg) body(buf []byte, deps []model.TaskID) []byte {
	f := func(b []byte, k string, v float64) []byte {
		b = append(b, '"')
		b = append(b, k...)
		b = append(b, `":`...)
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	b := append(buf[:0], '{')
	b = f(b, "x", r.x)
	b = f(append(b, ','), "y", r.y)
	b = f(append(b, ','), "start", r.start)
	b = f(append(b, ','), "wait", r.wait)
	if r.worker {
		b = f(append(b, ','), "velocity", r.vel)
		b = f(append(b, ','), "max_dist", r.maxDist)
		b = append(b, `,"skills":[`...)
		for i, s := range r.skills {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(s), 10)
		}
		return append(b, "]}"...)
	}
	b = append(b, `,"requires":`...)
	b = strconv.AppendInt(b, int64(r.needs), 10)
	if len(deps) > 0 {
		b = append(b, `,"deps":[`...)
		for i, d := range deps {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(d), 10)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// visLead is how many ticks after the current one a new registration first
// takes part in.
const visLead = 10

// openSchedule draws one connection's Poisson arrivals at rate per second
// over [0, dur). A registration due in tick period k (the k-th measured tick
// goes out at k·period) is visible from tick firstTick+k+visLead, so it has
// visLead-1 full periods to be acknowledged before the tick that needs it.
func openSchedule(rng *rand.Rand, rate float64, dur, period time.Duration, firstTick int) []reg {
	var out []reg
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		r := genReg(rng, firstTick+int(d/period)+visLead, 0)
		r.due = d
		out = append(out, r)
	}
}
