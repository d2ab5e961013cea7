package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"dasc/internal/core"
	"dasc/internal/model"
	"dasc/internal/server"
)

// Durable start state of the server workloads.
const (
	warmTicks = 300 // steady-state ticks before the measured phase
	tailTicks = 40  // of which the last ones stay in the journal tail
	histChunk = 500 // history entities registered per history tick
)

// state is the durable server state a workload starts from: a snapshot plus
// a journal tail, written once per run and copied for every server launch.
type state struct {
	snap, journal string
	firstTick     int   // index of the first measured tick
	conn          *conn // the registration stream's root tasks after warm-up
	entities      int   // workers + tasks registered
}

// newAlloc is the allocator every platform of the benchmark runs, matching
// dasc-server -alg G-G with its default seed.
func newAlloc() core.Allocator {
	a, err := core.NewByName(core.NameGG, 1)
	if err != nil {
		panic(err) // a fixed, valid name
	}
	return a
}

func register(p *server.Platform, r *reg, deps []model.TaskID) (int, error) {
	if r.worker {
		id, err := p.AddWorker(r.modelWorker())
		return int(id), err
	}
	id, err := p.AddTask(r.modelTask(deps))
	return int(id), err
}

// buildState writes the start state into dir. history short-lived entities
// come first, registered in chunks of histChunk and each chunk ticked once,
// so they end up expired or assigned and never active again. Then warmTicks
// ticks of the steady stream (perTick registrations per tick on average)
// bring the active population to steady state; the snapshot is cut
// tailTicks ticks before the end, leaving the rest as the journal tail that
// recovery replays.
func buildState(dir string, seed int64, perTick float64, history int) (*state, error) {
	st := &state{journal: filepath.Join(dir, "j.jsonl"), firstTick: warmTicks, conn: &conn{}}
	st.snap = st.journal + ".snap"
	j, err := server.OpenJournal(st.journal)
	if err != nil {
		return nil, err
	}
	p, err := server.NewPlatform(server.Config{Allocator: newAlloc(), Journal: j, SnapshotPath: st.snap})
	if err != nil {
		j.Close()
		return nil, err
	}
	err = fillState(p, st, seed, perTick, history)
	p.Close()
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("build start state: %w", err)
	}
	return st, nil
}

func fillState(p *server.Platform, st *state, seed int64, perTick float64, history int) error {
	// History draws from its own source, so the steady stream (and with it
	// the active population) is the same with and without history.
	hrng := rand.New(rand.NewSource(seed*7919 + 5))
	for c := 0; c*histChunk < history; c++ {
		for i := 0; i < histChunk; i++ {
			r := genReg(hrng, 0, 0.6)
			r.start, r.depBack = float64(c), nil
			if _, err := register(p, &r, nil); err != nil {
				return err
			}
		}
		if _, err := p.Tick(float64(c) + 0.5); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	regsFor := func(tick int) error {
		for n := poisson(rng, perTick); n > 0; n-- {
			r := genReg(rng, tick, 0)
			deps := st.conn.deps(&r)
			id, err := register(p, &r, deps)
			if err != nil {
				return err
			}
			st.conn.acked(&r, id, deps)
		}
		return nil
	}
	for v := 0; v < visLead; v++ {
		if err := regsFor(v); err != nil {
			return err
		}
	}
	for k := 0; k < warmTicks; k++ {
		if err := regsFor(k + visLead); err != nil {
			return err
		}
		if k == warmTicks-tailTicks {
			if _, err := p.SaveSnapshot(st.snap); err != nil {
				return err
			}
		}
		if _, err := p.Tick(logicalTime(k)); err != nil {
			return err
		}
	}
	s := p.Snapshot()
	st.entities = s.Workers + s.Tasks
	return nil
}

// copyFile copies src to dst (the server appends to its journal, so every
// launch works on a copy and the pristine state stays for the checks).
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
