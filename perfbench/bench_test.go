package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"dasc"
	"dasc/internal/obs"
	"dasc/internal/stats"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.5, 50, true},
		{100, 0.9, 90, true},  // exactly ten beyond
		{100, 0.99, 0, false}, // one beyond
		{1000, 0.99, 990, true},
		{20, 0.5, 10, true},
		{19, 0.5, 0, false}, // rank 10, nine beyond
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("p%g of %d: got %v, %v; want %v, ok=%v", c.q*100, c.n, got, err, c.want, c.ok)
		}
	}
}

// A burst that slows one window of five must not move the median window.
func TestWindowedMedianIgnoresABurst(t *testing.T) {
	var ss []sample
	for i := 0; i < 500; i++ {
		d := time.Duration(i) * 10 * time.Millisecond
		lat := time.Duration(1+i%10) * time.Millisecond
		if d >= 2*time.Second && d < 3*time.Second {
			lat += 100 * time.Millisecond
		}
		ss = append(ss, sample{due: d, ready: d, sent: d, done: d + lat})
	}
	got, err := windowed(ss, time.Second, 5, 0.5, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != 5 || got[0][2] != 105 || stats.Median(got[0]) != 5 || stats.Median(got[1]) != 8 {
		t.Fatalf("windowed p50, p80 = %v", got)
	}
	if _, err := windowed(ss, time.Second, 5, 0.95); err == nil {
		t.Fatal("p95 of 100 samples per window accepted")
	}
}

// fakeClock advances only when the code under test sleeps or a send takes
// time; every sleep overshoots by oversleep, as a timer wake-up does.
type fakeClock struct{ t, oversleep time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(d time.Duration) {
	if d > c.t {
		c.t = d + c.oversleep
	}
}

// A 100 ms stall in one request must show in the latency of every request
// queued behind it, although each of them takes 1 ms once sent; the
// generator's own oversleep counts too, and shows as slop.
func TestOpenLoopCountsStallAgainstQueuedRequests(t *testing.T) {
	c := &fakeClock{t: -time.Millisecond, oversleep: 300 * time.Microsecond}
	due := make([]time.Duration, 20)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	got := openLoop(c, due, func(i int) error {
		c.t += time.Millisecond
		if i == 3 {
			c.t += 100 * time.Millisecond
		}
		return nil
	})
	for i, s := range got {
		queued := i >= 4 && i <= 14 // due before the backlog cleared at 141.3 ms
		switch {
		case i == 3:
			if s.latency() != 101*time.Millisecond+c.oversleep {
				t.Errorf("stalled request: latency %v", s.latency())
			}
		case queued:
			if s.rtt() != time.Millisecond || s.slop() != 0 || s.latency() <= s.rtt() {
				t.Errorf("request %d queued behind the stall: rtt %v slop %v latency %v", i, s.rtt(), s.slop(), s.latency())
			}
		default:
			if s.latency() != time.Millisecond+c.oversleep || s.slop() != c.oversleep {
				t.Errorf("request %d on schedule: latency %v slop %v", i, s.latency(), s.slop())
			}
		}
	}
}

func TestMeasureCPUCoversOnlyTheMeasuredPhase(t *testing.T) {
	var mu sync.Mutex
	var used time.Duration
	spend := func(d time.Duration) {
		mu.Lock()
		used += d
		mu.Unlock()
	}
	read := func() (time.Duration, error) {
		mu.Lock()
		defer mu.Unlock()
		return used, nil
	}
	spend(300 * time.Millisecond) // set-up
	var done []time.Time
	marks, err := measureCPU(read, time.Hour, func() {
		for i := 0; i < 4; i++ {
			spend(20 * time.Millisecond) // measured phase: 20 ms per operation
			done = append(done, time.Now())
		}
	})
	spend(900 * time.Millisecond) // correctness checks
	if err != nil {
		t.Fatal(err)
	}
	if got := cpuTotal(marks); got != 80*time.Millisecond {
		t.Fatalf("phase CPU %v, want 80ms", got)
	}
	if got := cpuPerOp(marks, 0, done); len(got) != 1 || got[0] != 20 {
		t.Fatalf("CPU per operation %v ms, want [20]", got)
	}
}

func TestProcCPUReadsThisProcess(t *testing.T) {
	before, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(150 * time.Millisecond); time.Now().Before(end); {
	}
	after, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if d := after - before; d < 50*time.Millisecond || d > 2*time.Second {
		t.Fatalf("150 ms of spinning read as %v of CPU", d)
	}
}

// clockSlack bounds how far a span's own clock reads and its phases' reads
// can disagree.
const clockSlack = 0.05 // ms

func TestSimUnattributedIsNonNegative(t *testing.T) {
	c := dasc.DefaultSynthetic()
	c.Workers, c.Tasks, c.SkillUniverse = 300, 500, 30
	in, err := dasc.GenerateSynthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	var batches []dasc.SimBatchResult
	start := time.Now()
	if _, err := simulate(in, newAlloc(), false, func(b dasc.SimBatchResult) { batches = append(batches, b) }); err != nil {
		t.Fatal(err)
	}
	wall := ms(time.Since(start))
	var ix, al, di float64
	for _, b := range batches {
		ix, al, di = ix+b.Trace.IndexBuildMS, al+b.Trace.AllocMS, di+b.Trace.DispatchMS
	}
	if u := unattributedMS(wall, ix, al, di); u < -clockSlack {
		t.Fatalf("sim.unattributed_ms = %v", u)
	}
}

func TestTickUnattributedIsNonNegative(t *testing.T) {
	dir := t.TempDir()
	st, err := buildState(dir, 1, 10, 2000)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := newRunDir(filepath.Join(dir, "run"), st)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := startInProcess(rd, 256, filepath.Join(dir, "server.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer ip.close()
	cl := newClient(rd.sock)
	defer cl.close()
	for k := 0; k < 30; k++ {
		tm := strconv.FormatFloat(logicalTime(st.firstTick+k), 'g', -1, 64)
		if _, err := cl.do("POST", "/v1/tick?t="+tm, nil, "t-"+strconv.Itoa(k)); err != nil {
			t.Fatal(err)
		}
	}
	byTime := map[float64]obs.BatchTrace{}
	for _, tr := range ip.p.Traces().Last(256) {
		byTime[tr.Time] = tr
	}
	for k := 0; k < 30; k++ {
		tr, ok := byTime[logicalTime(st.firstTick+k)]
		h, timed := ip.routes.byID["t-"+strconv.Itoa(k)]
		if !ok || !timed {
			t.Fatalf("tick %d: trace %v, handler time %v", k, ok, timed)
		}
		if u := unattributedMS(ms(h), tr.IndexBuildMS, tr.AllocMS, tr.DispatchMS); u < -clockSlack {
			t.Fatalf("tick %d: tick.unattributed_ms = %v", k, u)
		}
	}
}

// BENCHMARK.json must name workloads the program runs and exactly the
// metrics it reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("workload %s unknown to the program", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d/%d metrics in BENCHMARK.json, %d/%d in the program",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if b.EndToEnd[i].Name != m.name || b.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, b.EndToEnd[i], m)
		}
	}
	for i, m := range perLayer {
		if b.PerLayer[i].Name != m.name || b.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, b.PerLayer[i], m)
		}
	}
}
