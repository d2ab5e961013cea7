package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"dasc/internal/core"
	"dasc/internal/gen"
	"dasc/internal/model"
)

// simGoldens pins whole simulation runs — every batch's population and
// assignment plus the aggregate result — captured before the batch
// population became incremental. Service time keeps workers busy across
// batches, so the population's skip-but-keep and drop rules both matter.
// The G-G and Greedy lines were re-pinned when dependency-aware allocators
// stopped being offered doomed tasks: Greedy's aggregates did not move,
// only its batch task counts in log.
var simGoldens = map[string]string{
	"G-G/reuse":     "batches=31 assigned=81 wasted=0 expired=19 travel=15.784689 busy=634.094936 delay=7.51687838 log=7f1068bb89fed708",
	"Greedy/reuse":  "batches=31 assigned=88 wasted=0 expired=12 travel=12.7764338 busy=565.729124 delay=6.63056266 log=b27ec4729388e4fc",
	"Closest/reuse": "batches=31 assigned=76 wasted=10 expired=14 travel=15.6780054 busy=637.941522 delay=7.12003144 log=0112601b4fedb687",
}

func TestSimGoldenRuns(t *testing.T) {
	c := gen.DefaultSynthetic().Scale(0.02)
	c.Seed = 5
	in, err := gen.Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range simGoldens {
		t.Run(name, func(t *testing.T) {
			alg, _, _ := strings.Cut(name, "/")
			alloc, err := core.NewByName(alg, 5)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			p, err := New(in, Config{
				Allocator: alloc, BatchInterval: 3, ServiceTime: 2,
				OnBatch: func(r BatchResult) {
					fmt.Fprintf(h, "%d %v %d %d %s\n", r.Index, r.Time, r.Workers, r.Tasks, r.Assignment)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("batches=%d assigned=%d wasted=%d expired=%d travel=%.9g busy=%.9g delay=%.9g log=%s",
				res.Batches, res.AssignedPairs, res.WastedPairs, res.ExpiredTasks,
				res.TotalTravel, res.WorkerBusyTime, res.MeanStartDelay, hex.EncodeToString(h.Sum(nil)[:8]))
			if got != want {
				t.Errorf("%s run digest\n got: %s\nwant: %s", name, got, want)
			}
		})
	}
}

// onlineGoldens pins every Result field of RunOnline on generated instances,
// floats to the bit (%v prints the shortest decimal that round-trips), with
// the worker assignment counts and the delays folded into digests. They were
// captured from the online regime's own event loop, before it ran on the
// batch kernel.
var onlineGoldens = map[string]string{
	"seed1/service0": "batches=500 assigned=82 weight=82 wasted=0 completed=82 expired=168 travel=12.290675071470297 busy=353.3461898986821 delay=4.44684839981654 rogue=0 delays=82/fd6dffcc2c05c265 workers=77/865d5cdb7d38e8d1",
	"seed1/service2": "batches=500 assigned=82 weight=82 wasted=0 completed=82 expired=168 travel=12.5711863822457 busy=530.8602377126439 delay=4.611653860962415 rogue=0 delays=82/b2f57c32d683a363 workers=80/cce751f5a7c1c226",
	"seed2/service0": "batches=500 assigned=118 weight=118 wasted=0 completed=118 expired=132 travel=18.064253307455633 busy=520.8046348164585 delay=5.024853391796478 rogue=0 delays=118/56edeb2edb7ba822 workers=101/6499b06f57114bd2",
	"seed2/service2": "batches=500 assigned=119 weight=119 wasted=0 completed=119 expired=131 travel=18.68083336048508 busy=818.6521574954108 delay=5.525775511450066 rogue=0 delays=119/7f4e7c30e6b03a9b workers=106/2bccf1a802bb5d3b",
	"seed3/service0": "batches=500 assigned=106 weight=106 wasted=0 completed=106 expired=144 travel=15.749259940907802 busy=460.9593438038552 delay=4.663785507799928 rogue=0 delays=106/802e9996f4c3272e workers=91/49b0d98ecaf980b8",
	"seed3/service2": "batches=500 assigned=106 weight=106 wasted=0 completed=106 expired=144 travel=16.391699733605957 busy=696.5142369004786 delay=4.924261625758943 rogue=0 delays=106/b81195538bc204a1 workers=94/458a5595b7c8053c",
	"seed4/service0": "batches=500 assigned=123 weight=123 wasted=0 completed=123 expired=127 travel=18.214301889224664 busy=539.2718154045191 delay=4.958919524344469 rogue=0 delays=123/f7d3dc5823203fa9 workers=98/f4f66438f90de65b",
	"seed4/service2": "batches=500 assigned=110 weight=110 wasted=0 completed=110 expired=140 travel=16.18116007355658 busy=704.4851428578258 delay=4.881017800528425 rogue=0 delays=110/2d70e396d331e569 workers=97/3753c1c3733a9c54",
}

// onlineDigest renders every field of an online run's Result.
func onlineDigest(res *Result) string {
	ids := make([]int, 0, len(res.WorkerAssignments))
	for id := range res.WorkerAssignments {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	wa := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(wa, "%d:%d\n", id, res.WorkerAssignments[model.WorkerID(id)])
	}
	dl := sha256.New()
	for _, d := range res.Delays {
		fmt.Fprintf(dl, "%v\n", d)
	}
	return fmt.Sprintf("batches=%d assigned=%d weight=%v wasted=%d completed=%d expired=%d travel=%v busy=%v delay=%v rogue=%d delays=%d/%s workers=%d/%s",
		res.Batches, res.AssignedPairs, res.AssignedWeight, res.WastedPairs, res.CompletedTasks, res.ExpiredTasks,
		res.TotalTravel, res.WorkerBusyTime, res.MeanStartDelay, res.RoguePairs,
		len(res.Delays), hex.EncodeToString(dl.Sum(nil)[:8]), len(ids), hex.EncodeToString(wa.Sum(nil)[:8]))
}

func TestOnlineGoldenRuns(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := gen.DefaultSynthetic().Scale(0.05)
		c.Seed = seed
		in, err := gen.Synthetic(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, service := range []float64{0, 2} {
			name := fmt.Sprintf("seed%d/service%v", seed, service)
			res, err := RunOnline(in, Config{ServiceTime: service, CollectDelays: true})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := onlineDigest(res), onlineGoldens[name]; got != want {
				t.Errorf("%s online digest\n got: %s\nwant: %s", name, got, want)
			}
		}
	}
}
