package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"dasc/internal/core"
	"dasc/internal/model"
	"dasc/internal/obs"
	"dasc/internal/server"
	"dasc/internal/stats"
)

// perLayer lists the traced metrics. Every traced run reports all of them;
// a layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"http.reg_handler_ms.p50", "ms"},
	{"http.reg_handler_ms.p99", "ms"},
	{"http.reg_outside_ms.p50", "ms"},
	{"loadgen.late_ms.p99", "ms"},
	{"ingest.entries_per_drain", "count"},
	{"ingest.commit_ms.p50", "ms"},
	{"ingest.queue_depth.max", "count"},
	{"journal.append_ms.p50", "ms"},
	{"journal.fsyncs_per_reg", "count"},
	{"journal.bytes_per_reg", "bytes"},
	{"recovery.snapshot_s", "s"},
	{"recovery.replay_s", "s"},
	{"recovery.snapshot_mb", "MB"},
	{"tick.handler_ms.p50", "ms"},
	{"tick.handler_ms.p90", "ms"},
	{"tick.unattributed_ms.p50", "ms"},
	{"tick.registered", "count"},
	{"tick.active_workers.mean", "count"},
	{"tick.pending_tasks.mean", "count"},
	{"engine.index_ms.p50", "ms"},
	{"engine.revalidated_ratio", "ratio"},
	{"engine.memo_hit_ratio", "ratio"},
	{"engine.admit_ratio", "ratio"},
	{"alloc.assign_ms.p50", "ms"},
	{"alloc.fixpoint_ms.p50", "ms"},
	{"alloc.deferred_ratio", "ratio"},
	{"game.skip_ratio", "ratio"},
	{"game.rounds_per_batch", "count"},
	{"sim.index_ms", "ms"},
	{"sim.alloc_ms", "ms"},
	{"sim.dispatch_ms", "ms"},
	{"sim.unattributed_ms", "ms"},
	{"sim.batches", "count"},
	{"sim.pairs", "count"},
	{"gen.instance_s", "s"},
	{"runtime.gc_per_op", "count"},
	{"runtime.heap_peak_mb", "MB"},
	{"traced.p25_ms", "ms"},
}

// timedAlloc times every Assign call of the allocator it wraps. It is the
// only wrapper the traced run puts inside the program: it sits behind the
// Allocator interface, so the batch code runs unchanged around it.
type timedAlloc struct {
	core.Allocator
	mu sync.Mutex
	d  []time.Duration
}

func (a *timedAlloc) Assign(b *core.Batch) *model.Assignment {
	start := time.Now()
	m := a.Allocator.Assign(b)
	d := time.Since(start)
	a.mu.Lock()
	a.d = append(a.d, d)
	a.mu.Unlock()
	return m
}

// take returns the Assign timings so far and starts a new list.
func (a *timedAlloc) take() []time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	d := a.d
	a.d = nil
	return d
}

// heapSampler tracks the peak live heap while it runs.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tk := time.NewTicker(20 * time.Millisecond)
		defer tk.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopc:
				return
			case <-tk.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// routeTimer wraps the server's HTTP handler and records each request's
// handler time under the X-Request-ID the load generator sent.
type routeTimer struct {
	mu   sync.Mutex
	byID map[string]time.Duration
}

func (rt *routeTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		if id := r.Header.Get("X-Request-ID"); id != "" {
			rt.mu.Lock()
			rt.byID[id] = d
			rt.mu.Unlock()
		}
	})
}

// inproc is a server built the way dasc-server builds one, running inside
// the benchmark process so its public entry points can be timed.
type inproc struct {
	p      *server.Platform
	j      *server.Journal
	alloc  *timedAlloc
	routes *routeTimer
	srv    *http.Server
	served chan error
	logf   *os.File

	snapshotS, replayS, snapshotMB float64
}

func startInProcess(rd *runDir, traceDepth int, logPath string) (*inproc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	j, err := server.OpenJournalMode(rd.journal, server.FsyncAlways, 0)
	if err != nil {
		logf.Close()
		return nil, err
	}
	ip := &inproc{j: j, logf: logf, alloc: &timedAlloc{Allocator: newAlloc()},
		routes: &routeTimer{byID: map[string]time.Duration{}}}
	// dasc-server's defaults for everything but the journal, allocator and
	// trace depth (deep enough to keep every measured tick).
	ip.p, err = server.NewPlatform(server.Config{
		Allocator:      ip.alloc,
		Journal:        j,
		SnapshotPath:   rd.snap,
		TraceDepth:     traceDepth,
		MaxBodyBytes:   server.DefaultMaxBodyBytes,
		IngestQueue:    4096,
		IngestBatch:    server.DefaultIngestBatch,
		Logger:         slog.New(slog.NewTextHandler(logf, nil)),
		AccessLogEvery: 100,
	})
	if err != nil {
		j.Close()
		logf.Close()
		return nil, err
	}
	ip.p.SetReady(false)
	// Recovery as server.Recover does it, with the snapshot load and the
	// journal replay timed apart.
	start := time.Now()
	f, err := os.Open(rd.snap)
	if err != nil {
		ip.close()
		return nil, err
	}
	err = ip.p.ReadSnapshot(f)
	fi, serr := f.Stat()
	f.Close()
	if err != nil || serr != nil {
		ip.close()
		return nil, fmt.Errorf("snapshot: %v %v", err, serr)
	}
	ip.snapshotS = time.Since(start).Seconds()
	ip.snapshotMB = float64(fi.Size()) / (1 << 20)
	start = time.Now()
	f, err = os.Open(rd.journal)
	if err != nil {
		ip.close()
		return nil, err
	}
	_, err = server.ReplayJournal(f, ip.p)
	f.Close()
	if err != nil {
		ip.close()
		return nil, err
	}
	ip.replayS = time.Since(start).Seconds()
	ip.p.SetReady(true)

	ln, err := net.Listen("unix", rd.sock)
	if err != nil {
		ip.close()
		return nil, err
	}
	ip.srv = &http.Server{Handler: ip.routes.wrap(server.Handler(ip.p)),
		ReadTimeout: 10 * time.Second, WriteTimeout: 30 * time.Second, IdleTimeout: 2 * time.Minute}
	ip.served = make(chan error, 1)
	go func() { ip.served <- ip.srv.Serve(ln) }()
	return ip, nil
}

// close shuts the HTTP server down (when serving), stops the ingest
// committer and closes the journal.
func (ip *inproc) close() error {
	var err error
	if ip.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = ip.srv.Shutdown(ctx)
		cancel()
		<-ip.served
		ip.srv = nil
	}
	ip.p.Close()
	if jerr := ip.j.Close(); err == nil {
		err = jerr
	}
	ip.logf.Close()
	return err
}

// drainPoller collects the ingest drains committed while it runs.
type drainPoller struct {
	stopc  chan struct{}
	done   chan struct{}
	drains []obs.DrainTrace
}

func pollDrains(p *server.Platform) *drainPoller {
	dp := &drainPoller{stopc: make(chan struct{}), done: make(chan struct{})}
	last := 0
	for _, d := range p.IngestDrains(obs.DefaultTraceDepth) {
		last = d.Seq
	}
	go func() {
		defer close(dp.done)
		tk := time.NewTicker(10 * time.Millisecond)
		defer tk.Stop()
		for stopping := false; ; {
			for _, d := range p.IngestDrains(obs.DefaultTraceDepth) {
				if d.Seq > last {
					dp.drains = append(dp.drains, d)
					last = d.Seq
				}
			}
			if stopping {
				return
			}
			select {
			case <-dp.stopc:
				stopping = true
			case <-tk.C:
			}
		}
	}()
	return dp
}

func (dp *drainPoller) stop() []obs.DrainTrace {
	close(dp.stopc)
	<-dp.done
	return dp.drains
}

// runServerTraced runs a server workload against an in-process server and
// reports the per-layer metrics.
func runServerTraced(o runOpts) (*outcome, error) {
	spec := serverSpecs[o.workload]
	st, err := buildState(o.dir, o.seed, steadyRate*tickPeriod.Seconds(), spec.history)
	if err != nil {
		return nil, err
	}
	rd, err := newRunDir(filepath.Join(o.dir, "run"), st)
	if err != nil {
		return nil, err
	}
	pl := makePlan(o.seed, o.dur, st.firstTick)
	ip, err := startInProcess(rd, len(pl.ticks)+tailTicks+64, filepath.Join(o.dir, "server.log"))
	if err != nil {
		return nil, err
	}
	defer func() {
		if ip.srv != nil {
			ip.close()
		}
	}()

	runtime.GC() // no set-up garbage left for the measured phase
	reg := ip.p.Metrics()
	fsyncs0 := reg.Counter(obs.MJournalFsyncsTotal).Value()
	bytes0 := reg.Counter(obs.MJournalBytesTotal).Value()
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	ip.alloc.take()
	heap := startHeapSampler()
	drains := pollDrains(ip.p)
	load := drive(rd.sock, pl, st.conn.clone(), true)
	ds := drains.stop()
	heapPeak := heap.stop()
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	assign := ip.alloc.take()
	fsyncs := reg.Counter(obs.MJournalFsyncsTotal).Value() - fsyncs0
	jbytes := reg.Counter(obs.MJournalBytesTotal).Value() - bytes0
	counts := ip.p.Snapshot()
	traces := ip.p.Traces().Last(ip.p.Traces().Cap())

	sv, err := fetchServed(rd.sock)
	if err != nil {
		return nil, err
	}
	if err := ip.close(); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	out := &outcome{attempted: pl.attempted(), failed: load.failed(), values: map[string]float64{}}
	out.gateErr = checkServed(st, rd, pl, load, sv)

	v := out.values
	v["recovery.snapshot_s"], v["recovery.replay_s"], v["recovery.snapshot_mb"] = ip.snapshotS, ip.replayS, ip.snapshotMB
	completed := float64(pl.attempted() - load.errors)
	v["runtime.gc_per_op"] = float64(gc1.NumGC-gc0.NumGC) / completed
	v["runtime.heap_peak_mb"] = heapPeak
	if err := httpLayers(v, load, ip.routes.byID); err != nil {
		return nil, err
	}
	regs := float64(len(pl.regs) - load.errors)
	tickBytes := 0
	for k := range pl.ticks {
		tickBytes += tickLineBytes(logicalTime(pl.firstTick + k))
	}
	ingestLayers(v, ds)
	v["journal.fsyncs_per_reg"] = ratio(float64(fsyncs-int64(len(pl.ticks))), regs)
	v["journal.bytes_per_reg"] = ratio(float64(jbytes-int64(tickBytes)), regs)
	wins, err := windowed(load.ticks, latencyWindow, int(o.dur/latencyWindow), 0.25)
	if err != nil {
		return nil, err
	}
	v["traced.p25_ms"] = stats.Median(wins[0])
	v["tick.registered"] = float64(counts.Workers + counts.Tasks)
	var phase []obs.BatchTrace
	for _, t := range traces {
		if t.Time >= logicalTime(pl.firstTick) {
			phase = append(phase, t)
		}
	}
	if err := tickLayers(v, phase, load, ip.routes.byID, pl); err != nil {
		return nil, err
	}
	if err := batchLayers(v, phase, assign); err != nil {
		return nil, err
	}
	out.detail = map[string]any{"start_entities": st.entities, "drains": len(ds), "traces": len(traces),
		"errors": load.errors, "missed_ticks": load.missed}
	return out, nil
}

// tickLineBytes is the journal size of one tick record.
func tickLineBytes(t float64) int {
	b, _ := json.Marshal(struct {
		Kind string   `json:"kind"`
		Tick *float64 `json:"tick"`
	}{"tick", &t})
	return len(b) + 1
}

func httpLayers(v map[string]float64, load *loadOut, byID map[string]time.Duration) error {
	var handler, outside, late []float64
	for i, s := range load.regs {
		late = append(late, ms(s.slop()))
		h, ok := byID["r-"+strconv.Itoa(i)]
		if !ok || s.err != nil {
			continue
		}
		handler = append(handler, ms(h))
		outside = append(outside, ms(s.rtt()-h))
	}
	ps, err := pcts(handler, 0.5, 0.99)
	if err != nil {
		return fmt.Errorf("registration handler: %w", err)
	}
	v["http.reg_handler_ms.p50"], v["http.reg_handler_ms.p99"] = ps[0], ps[1]
	if v["http.reg_outside_ms.p50"], err = percentile(outside, 0.5); err != nil {
		return err
	}
	v["loadgen.late_ms.p99"], err = percentile(late, 0.99)
	return err
}

func ingestLayers(v map[string]float64, ds []obs.DrainTrace) {
	var commit, journal []float64
	committed, depth := 0, 0
	for _, d := range ds {
		commit = append(commit, d.CommitMS)
		journal = append(journal, d.JournalMS)
		committed += d.Committed
		depth = max(depth, d.QueueDepth)
	}
	v["ingest.entries_per_drain"] = ratio(float64(committed), float64(len(ds)))
	v["ingest.queue_depth.max"] = float64(depth)
	v["ingest.commit_ms.p50"] = stats.Median(commit)
	v["journal.append_ms.p50"] = stats.Median(journal)
}

// tickLayers splits each measured tick's handler time into the batch
// trace's three phases and the rest (tick.unattributed_ms: population
// filter, satisfied rebuild, journal append, view publish).
func tickLayers(v map[string]float64, phase []obs.BatchTrace, load *loadOut, byID map[string]time.Duration, pl *plan) error {
	byTime := map[float64]obs.BatchTrace{}
	var workers, tasks []float64
	for _, t := range phase {
		byTime[t.Time] = t
		workers = append(workers, float64(t.Workers))
		tasks = append(tasks, float64(t.Tasks))
	}
	var handler, unattributed []float64
	for k := range load.ticks {
		h, ok := byID[fmt.Sprintf("t-%d", k)]
		t, traced := byTime[logicalTime(pl.firstTick+k)]
		if !ok || !traced {
			return fmt.Errorf("tick %d has no handler time or trace", k)
		}
		handler = append(handler, ms(h))
		unattributed = append(unattributed, unattributedMS(ms(h), t.IndexBuildMS, t.AllocMS, t.DispatchMS))
	}
	ps, err := pcts(handler, 0.5, 0.9)
	if err != nil {
		return err
	}
	v["tick.handler_ms.p50"], v["tick.handler_ms.p90"] = ps[0], ps[1]
	if v["tick.unattributed_ms.p50"], err = percentile(unattributed, 0.5); err != nil {
		return err
	}
	v["tick.active_workers.mean"], v["tick.pending_tasks.mean"] = stats.Mean(workers), stats.Mean(tasks)
	return nil
}

// unattributedMS is a span's time not covered by its timed phases.
func unattributedMS(total float64, phases ...float64) float64 {
	for _, p := range phases {
		total -= p
	}
	return total
}

// batchLayers folds the candidate-engine and allocator counters of the
// batches that ran the allocator. assign holds the Assign timings of those
// batches in order (batches with no worker or no task skip the allocator).
func batchLayers(v map[string]float64, batches []obs.BatchTrace, assign []time.Duration) error {
	var ran []obs.BatchTrace
	for _, t := range batches {
		if t.Workers > 0 && t.Tasks > 0 {
			ran = append(ran, t)
		}
	}
	if len(ran) != len(assign) {
		return fmt.Errorf("%d allocating batches but %d Assign calls", len(ran), len(assign))
	}
	var index, assignMS, fixpoint []float64
	var reval, rebuilt, hits, misses, examined, admitted, assigned, deferred, evaluated, skipped, rounds float64
	for i, t := range ran {
		index = append(index, t.IndexBuildMS)
		assignMS = append(assignMS, ms(assign[i]))
		fixpoint = append(fixpoint, t.AllocMS-ms(assign[i]))
		reval += float64(t.WorkersRevalidated)
		rebuilt += float64(t.WorkersRebuilt)
		hits += float64(t.MemoHits)
		misses += float64(t.MemoMisses)
		examined += float64(t.CandidatesExamined)
		admitted += float64(t.CandidatesAdmitted)
		assigned += float64(t.Assigned)
		deferred += float64(t.Deferred)
		evaluated += float64(t.GameEvaluated)
		skipped += float64(t.GameSkipped)
		rounds += float64(t.GameRounds)
	}
	v["engine.index_ms.p50"] = stats.Median(index)
	v["engine.revalidated_ratio"] = ratio(reval, reval+rebuilt)
	v["engine.memo_hit_ratio"] = ratio(hits, hits+misses)
	v["engine.admit_ratio"] = ratio(admitted, examined)
	v["alloc.assign_ms.p50"] = stats.Median(assignMS)
	v["alloc.fixpoint_ms.p50"] = stats.Median(fixpoint)
	v["alloc.deferred_ratio"] = ratio(deferred, assigned+deferred)
	v["game.skip_ratio"] = ratio(skipped, evaluated+skipped)
	v["game.rounds_per_batch"] = ratio(rounds, float64(len(ran)))
	return nil
}

// simLayers computes paper-sim's per-layer metrics: per-simulation phase
// sums (medians over the simulations) and the batch counters of all of them.
func simLayers(runs []simRun, gens []float64, gcs, heapPeak float64) (map[string]float64, error) {
	v := map[string]float64{}
	var index, alloc, dispatch, unattr, walls, batches, pairs []float64
	var all []obs.BatchTrace
	var assign []time.Duration
	for _, r := range runs {
		var ix, al, di float64
		for _, b := range r.batches {
			ix += b.Trace.IndexBuildMS
			al += b.Trace.AllocMS
			di += b.Trace.DispatchMS
			t := b.Trace
			t.Workers, t.Tasks = b.Workers, b.Tasks
			all = append(all, t)
		}
		index, alloc, dispatch = append(index, ix), append(alloc, al), append(dispatch, di)
		unattr = append(unattr, unattributedMS(ms(r.wall), ix, al, di))
		walls = append(walls, ms(r.wall))
		batches = append(batches, float64(r.res.Batches))
		pairs = append(pairs, float64(r.res.AssignedPairs))
		assign = append(assign, r.assign...)
	}
	v["sim.index_ms"], v["sim.alloc_ms"], v["sim.dispatch_ms"] = stats.Median(index), stats.Median(alloc), stats.Median(dispatch)
	v["sim.unattributed_ms"] = stats.Median(unattr)
	v["sim.batches"], v["sim.pairs"] = stats.Median(batches), stats.Median(pairs)
	v["gen.instance_s"] = stats.Median(gens)
	p25, err := percentile(walls, 0.25)
	if err != nil {
		return nil, err
	}
	v["traced.p25_ms"] = p25
	v["runtime.gc_per_op"] = gcs / float64(len(runs))
	v["runtime.heap_peak_mb"] = heapPeak
	return v, batchLayers(v, all, assign)
}
