package server

import (
	"math"
	"testing"

	"dasc/internal/core"
	"dasc/internal/geo"
	"dasc/internal/model"
)

// BenchmarkTickHistory times one tick (four task registrations included)
// at a constant active load, 100 long-lived workers and a few fresh tasks
// per tick, over histories of 0, 50K and 200K expired or assigned
// registrations. A tick that walks only the live population costs the same
// at every history size.
func BenchmarkTickHistory(b *testing.B) {
	for _, h := range []struct {
		name string
		n    int
	}{{"0", 0}, {"50K", 50_000}, {"200K", 200_000}} {
		b.Run(h.name, func(b *testing.B) {
			p, err := NewPlatform(Config{Allocator: core.NewGreedy(), ServiceTime: 0.1})
			if err != nil {
				b.Fatal(err)
			}
			// History: half workers, half tasks, arriving 1000 + 1000 per
			// tick and alive for half a time unit, as on a long-running
			// platform; a tenth of the tasks sit on a worker and get
			// assigned, the rest expire.
			const chunk = 1000
			now := 0.0
			for i := 0; i < h.n/2; now++ {
				for end := i + chunk; i < end && i < h.n/2; i++ {
					x := float64(i % chunk)
					if _, err := p.AddWorker(model.Worker{
						Loc: geo.Pt(x, -10), Start: now, Wait: 0.5,
						Velocity: 1, MaxDist: 1, Skills: model.NewSkillSet(3),
					}); err != nil {
						b.Fatal(err)
					}
					y := -10.0
					if i%10 != 0 {
						y = -500
					}
					if _, err := p.AddTask(model.Task{Loc: geo.Pt(x, y), Start: now, Wait: 0.5, Requires: 3}); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := p.Tick(now); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				if _, err := p.AddWorker(model.Worker{
					Loc: geo.Pt(float64(i%10)*10, float64(i/10)*10), Start: now, Wait: 1e9,
					Velocity: 10, MaxDist: 1e9, Skills: model.NewSkillSet(model.Skill(i % 3)),
				}); err != nil {
					b.Fatal(err)
				}
			}
			tick := func() {
				for i := 0; i < 4; i++ {
					if _, err := p.AddTask(model.Task{
						Loc: geo.Pt(float64(i*20), math.Mod(now, 100)), Start: now, Wait: 2,
						Requires: model.Skill(i % 3),
					}); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := p.Tick(now); err != nil {
					b.Fatal(err)
				}
				now++
			}
			tick() // drops the history once, before timing
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick()
			}
		})
	}
}
