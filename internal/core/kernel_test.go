package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"dasc/internal/gen"
	"dasc/internal/model"
	"dasc/internal/obs"
)

// batchGrid returns the simulator's batch times for in: every interval from
// the earliest appearance until the first time at or past the horizon.
func batchGrid(in *model.Instance, interval float64) []float64 {
	horizon, start := 0.0, math.Inf(1)
	for i := range in.Workers {
		horizon = math.Max(horizon, in.Workers[i].Expiry())
		start = math.Min(start, in.Workers[i].Start)
	}
	for i := range in.Tasks {
		horizon = math.Max(horizon, in.Tasks[i].Deadline())
		start = math.Min(start, in.Tasks[i].Start)
	}
	var grid []float64
	for k := 0; ; k++ {
		now := start + float64(k)*interval
		grid = append(grid, now)
		if now >= horizon {
			return grid
		}
	}
}

func kernelInstance(t *testing.T, seed int64) *model.Instance {
	t.Helper()
	c := gen.DefaultSynthetic().Scale(0.02) // 100×100, arrivals spread over time
	c.Seed = seed
	in, err := gen.Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// sameBooks fails unless both kernels hold bit-identical worker states and
// task books for every registered worker and task.
func sameBooks(t *testing.T, in *model.Instance, a, b *Kernel) {
	t.Helper()
	for i := range in.Workers {
		if wa, wb := a.Worker(&in.Workers[i]), b.Worker(&in.Workers[i]); wa != wb {
			t.Fatalf("worker %d: %+v vs %+v", i, wa, wb)
		}
	}
	for i := range in.Tasks {
		if ta, tb := a.Task(model.TaskID(i)), b.Task(model.TaskID(i)); ta != tb {
			t.Fatalf("task %d: %+v vs %+v", i, ta, tb)
		}
	}
}

// scratchIndexed hands its allocator a copy of every batch whose candidate
// engine is built from scratch, so the allocator never reads the engine the
// kernel carried across batches: the reference side of the cache
// differential.
type scratchIndexed struct{ Allocator }

func (s scratchIndexed) Assign(b *Batch) *model.Assignment {
	return s.Allocator.Assign(NewBatch(b.In, b.Workers, b.Tasks, b.Satisfied))
}

// TestKernelCacheMatchesScratch: a kernel whose allocator reads the
// candidate engine carried across batches must step bit-identically to one
// whose allocator reads an engine built from scratch every batch — equal
// engines mean equal allocator inputs mean equal assignments, dispatches
// and books — for every allocator.
func TestKernelCacheMatchesScratch(t *testing.T) {
	for _, seed := range []int64{5, 12} {
		in := kernelInstance(t, seed)
		grid := batchGrid(in, 3)
		for _, name := range AllNames() {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				alloc1, _ := NewByName(name, 3)
				alloc2, _ := NewByName(name, 3)
				cached := NewKernel(KernelConfig{Allocator: alloc1, ServiceTime: 2})
				scratch := NewKernel(KernelConfig{Allocator: scratchIndexed{alloc2}, ServiceTime: 2})
				steps, dispatched, revalidated := 0, 0, 0
				for k, now := range grid {
					rec := obs.NewBatchRec(k, now)
					got, err := cached.Step(in, now, rec)
					if err != nil {
						t.Fatal(err)
					}
					want, err := scratch.Step(in, now, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("t=%v: cached step diverged from scratch:\ncached:  %+v\nscratch: %+v", now, got, want)
					}
					sameBooks(t, in, cached, scratch)
					if got.Valid != nil {
						steps++
					}
					dispatched += len(got.Dispatches)
					revalidated += rec.Finish().WorkersRevalidated
				}
				if steps < 2 || dispatched == 0 || revalidated == 0 {
					t.Fatalf("%d allocated batches, %d dispatches, %d revalidations: the cross-batch path was not exercised",
						steps, dispatched, revalidated)
				}
			})
		}
	}
}

// TestKernelPopulationMatchesFullScan checks, before every step, the
// incremental population against a full registry scan over the kernel's
// books — entry for entry and in registration order — and, after it, that
// the population kept exactly what was live when the step began.
func TestKernelPopulationMatchesFullScan(t *testing.T) {
	in := kernelInstance(t, 5)
	for _, name := range []string{NameGreedy, NameClosest} {
		t.Run(name, func(t *testing.T) {
			alloc, _ := NewByName(name, 5)
			k := NewKernel(KernelConfig{Allocator: alloc, ServiceTime: 2})
			botched := 0
			for _, now := range batchGrid(in, 3) {
				var wantW []*model.Worker
				var wantT []*model.Task
				liveW, liveT := 0, 0
				for i := range in.Workers {
					w := &in.Workers[i]
					if now <= w.Expiry() {
						liveW++
					}
					if w.Start <= now && now <= w.Expiry() && k.Worker(w).BusyUntil <= now {
						wantW = append(wantW, w)
					}
				}
				for i := range in.Tasks {
					task := &in.Tasks[i]
					if tb := k.Task(task.ID); tb.Assigned || tb.Botched || task.Deadline() < now {
						continue
					}
					liveT++
					if task.Start <= now {
						wantT = append(wantT, task)
					}
				}
				k.grow(in)
				bws, tasks := k.population(in, now)
				var gotW []*model.Worker
				for i := range bws {
					gotW = append(gotW, bws[i].W)
					if ws := k.Worker(bws[i].W); bws[i].Loc != ws.Loc || bws[i].DistBudget != bws[i].W.MaxDist-ws.DistUsed {
						t.Fatalf("t=%v: batch worker %+v does not carry its state %+v", now, bws[i], ws)
					}
				}
				if !reflect.DeepEqual(gotW, wantW) || !reflect.DeepEqual(tasks, wantT) {
					t.Fatalf("t=%v: population (%d workers, %d tasks) differs from the full scan (%d, %d)",
						now, len(gotW), len(tasks), len(wantW), len(wantT))
				}
				st, err := k.Step(in, now, nil)
				if err != nil {
					t.Fatal(err)
				}
				if st.Workers != len(wantW) || st.Tasks != len(wantT) {
					t.Fatalf("t=%v: step allocated %d workers %d tasks, full scan %d and %d",
						now, st.Workers, st.Tasks, len(wantW), len(wantT))
				}
				if w, tk := k.Live(); w != liveW || tk != liveT {
					t.Fatalf("t=%v: population holds %d workers %d tasks, live set was %d and %d", now, w, tk, liveW, liveT)
				}
				for _, d := range st.Dispatches {
					if !d.Valid {
						botched++
					}
				}
			}
			if name == NameClosest && botched == 0 {
				t.Fatal("no botched dispatch: the botched drop rule was not exercised")
			}
		})
	}
}
