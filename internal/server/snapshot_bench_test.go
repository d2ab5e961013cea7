package server

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"dasc/internal/core"
	"dasc/internal/geo"
	"dasc/internal/model"
)

// snapshotBenchPlatform builds a platform holding n registrations, three
// workers to every task, registered in chunks of 1000 and ticked once per
// chunk as a long-running platform would be, so most end up expired and
// some assigned. Coordinates and windows are full-precision random floats,
// workers hold one to three skills and a third of the tasks depend on up
// to three recent tasks.
func snapshotBenchPlatform(tb testing.TB, n int) *Platform {
	tb.Helper()
	p, err := NewPlatform(Config{Allocator: core.NewGreedy(), ServiceTime: 0.1})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	nTasks := 0
	for i, now := 0, 0.0; i < n; now++ {
		for end := min(i+1000, n); i < end; i++ {
			loc := geo.Pt(100*rng.Float64(), 100*rng.Float64())
			if i%4 != 3 {
				skills := model.NewSkillSet(model.Skill(rng.Intn(20)))
				for k := rng.Intn(3); k > 0; k-- {
					skills.Add(model.Skill(rng.Intn(20)))
				}
				if _, err := p.AddWorker(model.Worker{
					Loc: loc, Start: now, Wait: rng.Float64(),
					Velocity: 1 + rng.Float64(), MaxDist: 10 * rng.Float64(), Skills: skills,
				}); err != nil {
					tb.Fatal(err)
				}
				continue
			}
			t := model.Task{Loc: loc, Start: now, Wait: rng.Float64(), Requires: model.Skill(rng.Intn(20))}
			if nTasks > 10 && rng.Intn(3) == 0 {
				for k := 1 + rng.Intn(3); k > 0; k-- {
					d := model.TaskID(nTasks - 1 - rng.Intn(10))
					if !slices.Contains(t.Deps, d) {
						t.Deps = append(t.Deps, d)
					}
				}
			}
			if _, err := p.AddTask(t); err != nil {
				tb.Fatal(err)
			}
			nTasks++
		}
		if _, err := p.Tick(now); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// BenchmarkReadSnapshot restores a 200K-registration snapshot into a fresh
// platform, with the size hint Recover passes: the load that dominates a
// server's recovery.
func BenchmarkReadSnapshot(b *testing.B) {
	snap := snapshotOf(b, snapshotBenchPlatform(b, 200_000))
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := NewPlatform(Config{Allocator: core.NewGreedy()})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.readSnapshot(bytes.NewReader(snap), int64(len(snap))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteSnapshot encodes the same state: the work SaveSnapshot does
// under the platform lock.
func BenchmarkWriteSnapshot(b *testing.B) {
	p := snapshotBenchPlatform(b, 200_000)
	var buf bytes.Buffer
	if err := p.WriteSnapshot(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := p.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
