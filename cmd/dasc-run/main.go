// Command dasc-run executes one allocation over a JSON workload instance.
// By default it simulates the full batch loop and prints the run metrics;
// with -static it runs the allocator once over the whole instance and prints
// the resulting assignment.
//
// Usage:
//
//	dasc-run -in workload.json -alg Greedy
//	dasc-run -in workload.json -alg Game-5% -interval 5
//	dasc-run -in workload.json -alg G-G -static -pairs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dasc/internal/core"
	"dasc/internal/dataset"
	"dasc/internal/obs"
	"dasc/internal/sim"
	"dasc/internal/stats"
	"dasc/internal/viz"
)

// writeFileWith creates path and streams fn's output into it.
func writeFileWith(path string, fn func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return fn(f)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dasc-run:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dasc-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		inPath   = fs.String("in", "", "input instance JSON (required)")
		alg      = fs.String("alg", core.NameGreedy, "allocator: "+strings.Join(append(core.AllNames(), core.NameDFS), ", "))
		seed     = fs.Int64("seed", 1, "random seed for the allocator")
		static   = fs.Bool("static", false, "single static batch instead of the simulation loop")
		pairs    = fs.Bool("pairs", false, "with -static: print the assignment pairs as JSON")
		dotPath  = fs.String("dot", "", "with -static: write the dependency graph (with the assignment highlighted) as Graphviz DOT to this file")
		svgPath  = fs.String("svg", "", "with -static: write the spatial layout (with the assignment drawn) as SVG to this file")
		interval = fs.Float64("interval", 5, "batch interval for the simulation loop")
		service  = fs.Float64("service", 0, "service duration per task")
		trace    = fs.String("trace", "", "write a per-batch CSV trace of the simulation to this file")
		metrics  = fs.String("metrics", "", "write aggregated run metrics (Prometheus text format) to this file, or - for stdout")
		poa      = fs.Int("poa", 0, "with -static: sample N random-init game equilibria against the exact optimum (small instances only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath == "" {
		return fmt.Errorf("missing -in")
	}
	in, err := dataset.Load(*inPath)
	if err != nil {
		return err
	}
	alloc, err := core.NewByName(*alg, *seed)
	if err != nil {
		return err
	}

	timer := stats.StartTimer()
	if *static {
		b := core.NewStaticBatch(in)
		m := core.DependencyFixpoint(b, alloc.Assign(b))
		fmt.Fprintf(stdout, "algorithm: %s\nscore: %d\ntime_ms: %.3f\n",
			alloc.Name(), m.Size(), timer.ElapsedMS())
		if *poa > 0 {
			q := core.MeasureEquilibriumQuality(b, core.GameOptions{}, core.DFSOptions{}, *poa, *seed)
			fmt.Fprintf(stdout, "optimum: %d (exact: %v)\nequilibria: best=%d worst=%d mean=%.2f over %d samples\npos_estimate: %.3f\npoa_estimate: %.3f\n",
				q.Optimum, q.Exact, q.Best, q.Worst, q.Mean, q.Samples, q.BestRatio, q.WorstRatio)
		}
		if *dotPath != "" {
			if err := writeFileWith(*dotPath, func(f io.Writer) error {
				return viz.WriteDot(f, in, viz.DotOptions{Assignment: m, Reduce: true})
			}); err != nil {
				return err
			}
		}
		if *svgPath != "" {
			if err := writeFileWith(*svgPath, func(f io.Writer) error {
				return viz.WriteSVG(f, in, viz.SVGOptions{Assignment: m, DrawDeps: true})
			}); err != nil {
				return err
			}
		}
		if *pairs {
			return dataset.WriteAssignment(stdout, m)
		}
		return nil
	}

	cfg := sim.Config{
		Allocator:     alloc,
		BatchInterval: *interval,
		ServiceTime:   *service,
	}
	var traceFile *os.File
	var csvSink func(sim.BatchResult)
	if *trace != "" {
		traceFile, err = os.Create(*trace)
		if err != nil {
			return err
		}
		defer traceFile.Close()
		if err := sim.WriteCSVHeader(traceFile); err != nil {
			return err
		}
		csvSink = sim.CSVTrace(traceFile, func(err error) {
			fmt.Fprintln(stderr, "trace:", err)
		})
	}
	var reg *obs.Registry
	var metricsSink func(sim.BatchResult)
	if *metrics != "" {
		reg = obs.NewRegistry()
		metricsSink = sim.MetricsSink(reg)
	}
	cfg.OnBatch = sim.TeeBatch(csvSink, metricsSink)
	p, err := sim.New(in, cfg)
	if err != nil {
		return err
	}
	res, err := p.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "algorithm: %s\nbatches: %d\nassigned_pairs: %d\ncompleted_tasks: %d\nexpired_tasks: %d\ntotal_travel: %.4f\nmean_start_delay: %.4f\ntime_ms: %.3f\n",
		alloc.Name(), res.Batches, res.AssignedPairs, res.CompletedTasks,
		res.ExpiredTasks, res.TotalTravel, res.MeanStartDelay, timer.ElapsedMS())
	if reg != nil {
		if *metrics == "-" {
			return reg.WriteText(stdout)
		}
		return writeFileWith(*metrics, reg.WriteText)
	}
	return nil
}
