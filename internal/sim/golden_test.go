package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"dasc/internal/core"
	"dasc/internal/gen"
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
