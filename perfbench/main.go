// Command perfbench is the repository benchmark. One run sets up one
// workload, measures it for a fixed time, checks the program's outputs and
// prints one JSON result line:
//
//	perfbench -server <dasc-server binary> -work <dir> \
//	    --workload history --seed 1 --seconds 20 --trace 0
//
// Workloads mixed and history drive a dasc-server child process over a Unix
// socket; paper-sim runs dasc.Simulate in-process. With --trace 1 the
// same workloads run against an in-process server whose public entry points
// are timed from outside, and the result carries per-layer metrics instead
// of end-to-end ones. perfbench/run.sh builds both binaries and runs this.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"dasc/internal/stats"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced metrics every workload reports. The timed
// operation is a tick on mixed and history and a whole simulation on
// paper-sim. On the server workloads p25_ms and cpu_ms_per_op are medians
// over latencyWindow and cpuWindow windows; on paper-sim p25_ms is over
// simulations and cpu_ms_per_op their median. Latency reports p25, not p50
// or a tail: on a shared 2-vCPU host the hypervisor's preemption only ever
// adds delay, so it moves a low percentile least, and p50 of history's ticks
// spread past the largest bound between runs. p50 and p90 go to the record
// line.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p25_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// workloads are the names --workload accepts.
var workloads = []string{"mixed", "history", "paper-sim"}

// runOpts are a run's settings.
type runOpts struct {
	workload  string
	seed      int64
	dur       time.Duration
	trace     bool
	serverBin string
	dir       string // private scratch directory of this run
}

// outcome is what a workload run hands back: raw metric values by name,
// counts, and details for the record line.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	gateErr   error
	detail    map[string]any
}

func main() {
	var (
		workload  = flag.String("workload", "", "mixed, history or paper-sim")
		seed      = flag.Int64("seed", 1, "workload seed")
		seconds   = flag.Int("seconds", 20, "length of the measured phase")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		serverBin = flag.String("server", "", "dasc-server binary")
		work      = flag.String("work", ".bench_build/work", "scratch directory")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *serverBin, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, serverBin, work string) error {
	_, isServer := serverSpecs[workload]
	if !slices.Contains(workloads, workload) {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("bad --seconds %d or --trace %d", seconds, trace)
	}
	if isServer && trace == 0 && serverBin == "" {
		return fmt.Errorf("workload %s needs -server", workload)
	}
	dir := filepath.Join(work, fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o := runOpts{workload: workload, seed: seed, dur: time.Duration(seconds) * time.Second,
		trace: trace == 1, serverBin: serverBin, dir: dir}

	steal0, total0 := stealTicks()
	var out *outcome
	var err error
	switch {
	case !isServer:
		out, err = runPaperSim(o)
	case o.trace:
		out, err = runServerTraced(o)
	default:
		out, err = runServer(o)
	}
	if err != nil {
		return err
	}
	steal1, total1 := stealTicks()

	res := result{Correct: out.gateErr == nil, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if o.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{out.values[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := out.values[m.name]
			if !ok {
				return fmt.Errorf("workload %s did not measure %s", workload, m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
	}
	conns := 0
	if isServer {
		conns = connections
	}
	record := map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
		"env": map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
			"journal_fs": fsType(dir), "clk_tck": clockTicks(), "connections": conns,
			"gogc":        envOr("GOGC", "default"),
			"steal_share": ratio(float64(steal1-steal0), float64(total1-total0)),
		},
		"detail": out.detail,
	}
	if out.gateErr != nil {
		record["gate_error"] = out.gateErr.Error()
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(record); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if out.gateErr != nil {
		return fmt.Errorf("correctness gate: %w", out.gateErr)
	}
	return nil
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

// runServer is an untraced server workload: dasc-server as a child process.
func runServer(o runOpts) (*outcome, error) {
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

	var setups []float64
	var ch *child
	for i := 0; i < setupRepeats; i++ {
		if ch != nil {
			if err := ch.stop(); err != nil {
				return nil, fmt.Errorf("stop after setup: %w", err)
			}
		}
		var d time.Duration
		ch, d, err = startServer(o.serverBin, rd.sock, rd.journal, filepath.Join(o.dir, "server.log"))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer ch.stop()

	// The measured phase starts with no set-up garbage left to collect, and
	// the load generator (this process, untraced) collects rarely, so its GC
	// competes as little as it can with the server for the CPUs.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	pid := ch.cmd.Process.Pid
	var load *loadOut
	marks, err := measureCPU(func() (time.Duration, error) { return procCPU(pid) }, cpuWindow, func() {
		load = drive(rd.sock, pl, st.conn.clone(), false)
	})
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return nil, err
	}
	sv, err := fetchServed(rd.sock)
	if err != nil {
		return nil, err
	}
	if err := ch.stop(); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	if load.first != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed request:", load.first)
	}

	out := &outcome{attempted: pl.attempted(), failed: load.failed(), values: map[string]float64{}}
	out.gateErr = checkServed(st, rd, pl, load, sv)
	wins, err := windowed(load.ticks, latencyWindow, int(o.dur/latencyWindow), 0.25, 0.5, 0.9)
	if err != nil {
		return nil, err
	}
	out.values["setup_s"] = stats.Median(setups)
	cpus := cpuPerOp(marks, cpuWindow, load.completions())
	out.values["p25_ms"] = stats.Median(wins[0])
	out.values["cpu_ms_per_op"] = stats.Median(cpus)
	out.values["peak_rss_mb"] = rss
	out.detail = serverDetail(st, pl, load, setups)
	out.detail["p50_ms"], out.detail["p90_ms"] = stats.Median(wins[1]), stats.Median(wins[2])
	out.detail["server_cpu_s"] = cpuTotal(marks).Seconds()
	out.detail["p25_ms_windows"], out.detail["p50_ms_windows"], out.detail["p90_ms_windows"] = wins[0], wins[1], wins[2]
	out.detail["cpu_ms_per_op_windows"] = cpus
	return out, nil
}

// serverDetail is the record line's description of a server run: sample
// counts, and the latency of the registrations, which are not the timed
// operation.
func serverDetail(st *state, pl *plan, load *loadOut, setups []float64) map[string]any {
	d := map[string]any{
		"start_entities": st.entities, "registrations": len(pl.regs), "ticks": len(pl.ticks),
		"errors": load.errors, "missed_ticks": load.missed, "setup_s_each": setups,
	}
	var regs []float64
	for _, s := range load.regs {
		regs = append(regs, ms(s.latency()))
	}
	if rp, err := pcts(regs, 0.5, 0.99); err == nil {
		d["reg_p50_ms"], d["reg_p99_ms"] = rp[0], rp[1]
	}
	return d
}
