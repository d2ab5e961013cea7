package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"dasc"
	"dasc/internal/stats"
)

// A run simulates paperInstances instances of the same shape in turn, so
// its figures average over inputs instead of hanging on one draw, and keeps
// going until minSims simulations (whole rounds) have run, so its median
// has ten simulations beyond it.
const (
	paperInstances = 4
	minSims        = 20
)

// paperInstance generates fig10's largest point: Table V defaults with 8K
// tasks (5K workers), the seed taken from the run.
func paperInstance(seed int64) (*dasc.Instance, error) {
	c := dasc.DefaultSynthetic()
	c.Tasks = 8000
	c.Seed = seed
	return dasc.GenerateSynthetic(c)
}

// digest fingerprints a simulation's outcome: its counts, travel, busy time
// and every worker's conducted-task count.
func digest(r *dasc.SimResult) [32]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range []int{r.Batches, r.AssignedPairs, r.WastedPairs, r.ExpiredTasks, r.RoguePairs} {
		put(uint64(v))
	}
	put(math.Float64bits(r.TotalTravel))
	put(math.Float64bits(r.WorkerBusyTime))
	ids := make([]int, 0, len(r.WorkerAssignments))
	for w := range r.WorkerAssignments {
		ids = append(ids, int(w))
	}
	sort.Ints(ids)
	for _, w := range ids {
		put(uint64(w))
		put(uint64(r.WorkerAssignments[dasc.WorkerID(w)]))
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// simulate runs the instance at batch interval 1, the batch-interval
// ablation's setting (about 90 batches per simulation).
func simulate(in *dasc.Instance, alloc dasc.Allocator, verify bool, onBatch func(dasc.SimBatchResult)) (*dasc.SimResult, error) {
	return dasc.Simulate(in, dasc.SimConfig{Allocator: alloc, BatchInterval: 1,
		VerifyEngineCache: verify, VerifyGameWorklist: verify, OnBatch: onBatch})
}

// simRun is one measured simulation.
type simRun struct {
	wall    time.Duration
	cpu     time.Duration
	digest  [32]byte
	res     *dasc.SimResult
	batches []dasc.SimBatchResult // traced runs only
	assign  []time.Duration       // traced runs only
}

// runPaperSim repeats full simulations in-process. Set-up is, per instance,
// its generation plus one warm-up simulation; setup_s is the median over the
// instances. The correctness gate compares every measured simulation's
// digest with an untimed run of its instance that has the engine
// cross-checks on.
func runPaperSim(o runOpts) (*outcome, error) {
	var setups, gens []float64
	ins := make([]*dasc.Instance, paperInstances)
	for i := range ins {
		start := time.Now()
		in, err := paperInstance(o.seed*paperInstances + int64(i))
		if err != nil {
			return nil, err
		}
		gens = append(gens, time.Since(start).Seconds())
		if _, err := simulate(in, newAlloc(), false, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		ins[i] = in
	}

	runtime.GC() // no set-up garbage left for the measured phase
	var gcBefore runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	heap := startHeapSampler()
	var runs []simRun
	phase := time.Now()
	for time.Since(phase) < o.dur || len(runs) < minSims || len(runs)%paperInstances != 0 {
		var r simRun
		var onBatch func(dasc.SimBatchResult)
		alloc := newAlloc()
		var ta *timedAlloc
		if o.trace {
			ta = &timedAlloc{Allocator: alloc}
			alloc = ta
			onBatch = func(b dasc.SimBatchResult) { r.batches = append(r.batches, b) }
		}
		cpu0, err := selfCPU()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := simulate(ins[len(runs)%paperInstances], alloc, false, onBatch)
		if err != nil {
			return nil, err
		}
		r.wall = time.Since(start)
		cpu1, err := selfCPU()
		if err != nil {
			return nil, err
		}
		r.cpu = cpu1 - cpu0
		r.res, r.digest = res, digest(res)
		if ta != nil {
			r.assign = ta.take()
		}
		runs = append(runs, r)
	}
	heapPeak := heap.stop()
	var gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcAfter)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}

	out := &outcome{attempted: len(runs), values: map[string]float64{}}
	for i, in := range ins {
		ref, err := simulate(in, newAlloc(), true, nil)
		if err != nil {
			out.gateErr = fmt.Errorf("verified simulation of instance %d: %w", i, err)
			out.failed = len(runs)
			break
		}
		want := digest(ref)
		for j := i; j < len(runs); j += paperInstances {
			if runs[j].digest != want {
				out.gateErr = fmt.Errorf("simulation %d: outcome digest differs from the verified run", j)
				out.failed++
			}
		}
	}

	walls, cpus := make([]float64, len(runs)), make([]float64, len(runs))
	for i, r := range runs {
		walls[i], cpus[i] = ms(r.wall), ms(r.cpu)
	}
	out.detail = map[string]any{
		"simulations": len(runs), "instances": paperInstances,
		"setup_s_each": setups, "pairs": runs[0].res.AssignedPairs, "batches": runs[0].res.Batches,
	}
	if o.trace {
		out.values, err = simLayers(runs, gens, float64(gcAfter.NumGC-gcBefore.NumGC), heapPeak)
		return out, err
	}
	ps, err := pcts(walls, 0.25, 0.5)
	if err != nil {
		return nil, err
	}
	out.detail["p50_ms"] = ps[1]
	out.values["setup_s"] = stats.Median(setups)
	out.values["p25_ms"] = ps[0]
	out.values["cpu_ms_per_op"] = stats.Median(cpus)
	out.values["peak_rss_mb"] = rss
	return out, nil
}
