package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"dasc/internal/dataset"
	"dasc/internal/server"
)

// serverSpec is one workload against the HTTP server. Both server workloads
// run the same steady stream: open-loop registrations on one connection and
// a tick every tickPeriod on the other; they differ only in the history the
// start state holds.
type serverSpec struct {
	history int // expired/assigned entities preloaded into the snapshot
}

const (
	tickPeriod  = 40 * time.Millisecond
	steadyRate  = 400 // registrations per second of the steady stream
	connections = 2   // one for registrations, one for ticks
	// cpuWindow and latencyWindow are the windows cpu_ms_per_op and the
	// latency figures take their medians over; a latency window holds 100
	// ticks, enough for a p90 with ten beyond it.
	cpuWindow     = 4 * time.Second
	latencyWindow = 4 * time.Second
	// setupRepeats is how many times a server run launches the server
	// (launch to ready); setup_s is their median.
	setupRepeats = 5
)

var serverSpecs = map[string]serverSpec{
	"mixed":   {},
	"history": {history: 200000},
}

// plan is the measured phase's generated input: the registration schedule
// and the tick schedule.
type plan struct {
	regs      []reg
	ticks     []time.Duration // due times of the measured ticks
	firstTick int
}

func makePlan(seed int64, dur time.Duration, firstTick int) *plan {
	rng := rand.New(rand.NewSource(seed*104729 + 3))
	pl := &plan{firstTick: firstTick, regs: openSchedule(rng, steadyRate, dur, tickPeriod, firstTick)}
	for k := 0; time.Duration(k)*tickPeriod < dur; k++ {
		pl.ticks = append(pl.ticks, time.Duration(k)*tickPeriod)
	}
	return pl
}

func (pl *plan) attempted() int { return len(pl.regs) + len(pl.ticks) }

// loadOut is what the measured phase observed.
type loadOut struct {
	regs   []sample
	ids    []int // acknowledged IDs (-1 when the request failed)
	ticks  []sample
	errors int // failed requests
	missed int // registrations acknowledged after the tick that needed them went out
	first  error
	t0     time.Time // start of the phase; sample offsets count from it
}

func (o *loadOut) failed() int { return o.errors + o.missed }

// completions returns the completion instants of the successful requests.
func (o *loadOut) completions() []time.Time {
	var out []time.Time
	for _, ss := range [][]sample{o.regs, o.ticks} {
		for _, s := range ss {
			if s.err == nil {
				out = append(out, o.t0.Add(s.done))
			}
		}
	}
	return out
}

// drive runs the plan open-loop against the server at sock: registrations
// on one connection, continuing cs's dependency state, and ticks on another.
// With tag set every request carries an X-Request-ID (r-<i>, t-<k>) the
// traced run keys its handler timings by.
func drive(sock string, pl *plan, cs *conn, tag bool) *loadOut {
	out := &loadOut{ids: make([]int, len(pl.regs))}
	clk := wallClock{t0: time.Now().Add(20 * time.Millisecond)}
	out.t0 = clk.t0
	var wg sync.WaitGroup
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		out.errors++
		if out.first == nil {
			out.first = err
		}
		mu.Unlock()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		cl := newClient(sock)
		defer cl.close()
		due := make([]time.Duration, len(pl.regs))
		for i := range pl.regs {
			due[i] = pl.regs[i].due
		}
		var buf []byte
		out.regs = openLoop(clk, due, func(i int) error {
			r := &pl.regs[i]
			out.ids[i] = -1
			deps := cs.deps(r)
			buf = r.body(buf, deps)
			path := "/v1/tasks"
			if r.worker {
				path = "/v1/workers"
			}
			id := ""
			if tag {
				id = "r-" + strconv.Itoa(i)
			}
			resp, err := cl.do("POST", path, buf, id)
			if err == nil {
				out.ids[i], err = parseID(resp)
			}
			if err != nil {
				fail(err)
				return err
			}
			cs.acked(r, out.ids[i], deps)
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		cl := newClient(sock)
		defer cl.close()
		out.ticks = openLoop(clk, pl.ticks, func(k int) error {
			id := ""
			if tag {
				id = "t-" + strconv.Itoa(k)
			}
			t := strconv.FormatFloat(logicalTime(pl.firstTick+k), 'g', -1, 64)
			_, err := cl.do("POST", "/v1/tick?t="+t, nil, id)
			if err != nil {
				fail(err)
			}
			return err
		})
	}()
	wg.Wait()
	// A registration that was still unacknowledged when its tick went out may
	// have missed that tick: the run would no longer be deterministic, so it
	// counts as failed.
	for i := range pl.regs {
		k := pl.regs[i].tick - pl.firstTick
		if k < len(out.ticks) && out.regs[i].err == nil && out.regs[i].done > out.ticks[k].sent {
			out.missed++
		}
	}
	return out
}

// runDir is the per-run copy of the start state the server works on.
type runDir struct {
	dir, sock, journal, snap string
}

func newRunDir(dir string, st *state) (*runDir, error) {
	rd := &runDir{dir: dir, sock: filepath.Join(dir, "s.sock"), journal: filepath.Join(dir, "j.jsonl")}
	rd.snap = rd.journal + ".snap"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := copyFile(rd.journal, st.journal); err != nil {
		return nil, err
	}
	return rd, copyFile(rd.snap, st.snap)
}

// served is the server's state as it serves it.
type served struct {
	instance, assignments []byte
}

func fetchServed(sock string) (*served, error) {
	cl := newClient(sock)
	defer cl.close()
	inst, err := cl.do("GET", "/v1/instance", nil, "")
	if err != nil {
		return nil, err
	}
	asg, err := cl.do("GET", "/v1/assignments", nil, "")
	if err != nil {
		return nil, err
	}
	return &served{instance: inst, assignments: asg}, nil
}

// checkServed is the correctness gate of a server run, made after the
// server stopped. A platform with both engine cross-checks on
// (VerifyEngineCache, VerifyGameWorklist) recovers the snapshot and journal
// the server wrote: no replayed tick may diverge, and the registries and
// assignments must equal the served ones byte for byte. The same seed's
// stream then runs in its canonical order from the pristine start state: it
// must hand out the IDs the server acknowledged and end with the served
// registries and assignments.
func checkServed(st *state, rd *runDir, pl *plan, out *loadOut, sv *served) error {
	p, err := server.NewPlatform(server.Config{Allocator: newAlloc(), VerifyEngineCache: true, VerifyGameWorklist: true})
	if err != nil {
		return err
	}
	if _, err := server.Recover(p, rd.snap, rd.journal); err != nil {
		return fmt.Errorf("verified replay: %w", err)
	}
	if err := sameState(p, sv); err != nil {
		return fmt.Errorf("verified replay vs served state: %w", err)
	}
	cp, err := server.NewPlatform(server.Config{Allocator: newAlloc()})
	if err != nil {
		return err
	}
	if _, err := server.Recover(cp, st.snap, st.journal); err != nil {
		return fmt.Errorf("canonical run: %w", err)
	}
	cs, next := st.conn.clone(), 0
	apply := func(limit int) error {
		for ; next < len(pl.regs) && pl.regs[next].tick <= limit; next++ {
			r := &pl.regs[next]
			deps := cs.deps(r)
			id, err := register(cp, r, deps)
			if err != nil {
				return err
			}
			if id != out.ids[next] {
				return fmt.Errorf("registration %d: canonical run gave ID %d, server %d", next, id, out.ids[next])
			}
			cs.acked(r, id, deps)
		}
		return nil
	}
	for k := range pl.ticks {
		if err := apply(pl.firstTick + k + visLead - 1); err != nil {
			return err
		}
		if _, err := cp.Tick(logicalTime(pl.firstTick + k)); err != nil {
			return fmt.Errorf("canonical tick %d: %w", k, err)
		}
	}
	if err := apply(int(^uint(0) >> 1)); err != nil {
		return err
	}
	if err := sameState(cp, sv); err != nil {
		return fmt.Errorf("canonical run vs served state: %w", err)
	}
	return nil
}

func sameState(p *server.Platform, sv *served) error {
	var inst, asg bytes.Buffer
	if err := dataset.Write(&inst, p.InstanceView()); err != nil {
		return err
	}
	if err := dataset.WriteAssignment(&asg, p.AssignmentsView()); err != nil {
		return err
	}
	if !bytes.Equal(inst.Bytes(), sv.instance) {
		return fmt.Errorf("registries differ (%d vs %d bytes)", inst.Len(), len(sv.instance))
	}
	if !bytes.Equal(asg.Bytes(), sv.assignments) {
		return fmt.Errorf("assignments differ (%d vs %d bytes)", asg.Len(), len(sv.assignments))
	}
	return nil
}
