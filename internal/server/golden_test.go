package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"dasc/internal/core"
	"dasc/internal/model"
)

// The golden stream: goldenChurnTicks ticks of short-lived registrations (each
// worker and task lives 1–4 time units, so thousands of them expire or get
// assigned), then steady ticks of a light register/tick stream with longer
// windows. Both phases give a third of the tasks dependencies on recent
// tasks. The platform snapshots at goldenSnapTick and is recovered from
// that snapshot plus the journal tail at goldenRecoverTick.
const (
	goldenChurnTicks  = 150
	goldenTotalTicks  = 300
	goldenSnapTick    = 100
	goldenRecoverTick = 160
)

// goldenDigests pins the served state at the end of the golden stream,
// captured before the tick population became incremental. Changing the
// allocation, dispatch or view code must leave every line unchanged. The
// G-G line was re-pinned when dependency-aware allocators stopped being
// offered doomed tasks, which no longer sit in the game's strategy sets.
var goldenDigests = map[string]string{
	core.NameGreedy:  "batches=300 workers=1800 tasks=1950 assigned=1237 wasted=0 rogue=0 assignments=44b306a5a03a287a instance=786eb6decd359572",
	core.NameGG:      "batches=300 workers=1800 tasks=1950 assigned=1280 wasted=0 rogue=0 assignments=d9a0ddcdb4cc43f8 instance=786eb6decd359572",
	core.NameClosest: "batches=300 workers=1800 tasks=1950 assigned=1255 wasted=176 rogue=0 assignments=7030298751deb92d instance=786eb6decd359572",
}

type tickHook func(t *testing.T, p *Platform, now float64, out *BatchOutcome)

// goldenDriver replays the golden stream onto a platform. rng draws the
// registrations; nTasks tracks the next task ID so dependencies always name
// registered tasks.
type goldenDriver struct {
	rng    *rand.Rand
	nTasks int
	// onTick, when non-nil, runs around every tick: before it with a nil
	// outcome, after it with the tick's outcome (the population oracle test
	// hooks in here).
	onTick tickHook
}

func (d *goldenDriver) worker(now float64, short bool) model.Worker {
	wait := 1 + 3*d.rng.Float64()
	if !short {
		wait = 20 + 20*d.rng.Float64()
	}
	skills := model.NewSkillSet(model.Skill(d.rng.Intn(4)))
	if d.rng.Intn(2) == 0 {
		skills.Add(model.Skill(d.rng.Intn(4)))
	}
	return model.Worker{
		Loc:   pt(20*d.rng.Float64(), 20*d.rng.Float64()),
		Start: now, Wait: wait,
		Velocity: 1 + 2*d.rng.Float64(), MaxDist: 60,
		Skills: skills,
	}
}

func (d *goldenDriver) task(now float64, short bool) model.Task {
	wait := 1 + 3*d.rng.Float64()
	if !short {
		wait = 10 + 10*d.rng.Float64()
	}
	t := model.Task{
		Loc:   pt(20*d.rng.Float64(), 20*d.rng.Float64()),
		Start: now, Wait: wait,
		Requires: model.Skill(d.rng.Intn(4)), Weight: 1,
	}
	if d.nTasks > 0 && d.rng.Intn(3) == 0 {
		seen := map[model.TaskID]bool{}
		for k := 1 + d.rng.Intn(2); k > 0; k-- {
			lo := d.nTasks - 30
			if lo < 0 {
				lo = 0
			}
			dep := model.TaskID(lo + d.rng.Intn(d.nTasks-lo))
			if !seen[dep] {
				seen[dep] = true
				t.Deps = append(t.Deps, dep)
			}
		}
	}
	return t
}

// run drives ticks [from, to) onto p.
func (d *goldenDriver) run(t *testing.T, p *Platform, from, to int) {
	t.Helper()
	for k := from; k < to; k++ {
		now := float64(k)
		short := k < goldenChurnTicks
		nw, nt := 2, 3
		if short {
			nw, nt = 10, 10
		}
		for i := 0; i < nw; i++ {
			if _, err := p.AddWorker(d.worker(now, short)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < nt; i++ {
			id, err := p.AddTask(d.task(now, short))
			if err != nil {
				t.Fatal(err)
			}
			if int(id) != d.nTasks {
				t.Fatalf("task ID %d, want %d", id, d.nTasks)
			}
			d.nTasks++
		}
		if d.onTick != nil {
			d.onTick(t, p, now, nil)
		}
		out, err := p.Tick(now)
		if err != nil {
			t.Fatal(err)
		}
		if d.onTick != nil {
			d.onTick(t, p, now, out)
		}
	}
}

// runGoldenStream drives the whole golden stream for one allocator through
// the ingest pipeline, a journal, a mid-stream snapshot and a recovery, and
// returns the platform that served the end of it plus the snapshot and
// journal paths it left behind. wrap, when non-nil, wraps the allocator of
// each platform the stream opens.
func runGoldenStream(t *testing.T, alg string, onTick tickHook, wrap func(core.Allocator) core.Allocator) (*Platform, string, string) {
	t.Helper()
	dir := t.TempDir()
	snap, jpath := filepath.Join(dir, "state.snap"), filepath.Join(dir, "journal.jsonl")
	open := func() *Platform {
		j, err := OpenJournal(jpath)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		alloc, err := core.NewByName(alg, 7)
		if err != nil {
			t.Fatal(err)
		}
		if wrap != nil {
			alloc = wrap(alloc)
		}
		p, err := NewPlatform(Config{
			Allocator: alloc, ServiceTime: 0.5, Journal: j,
			SnapshotPath: snap, IngestQueue: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}
	d := &goldenDriver{rng: rand.New(rand.NewSource(13)), onTick: onTick}
	p1 := open()
	d.run(t, p1, 0, goldenSnapTick)
	if _, err := p1.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	d.run(t, p1, goldenSnapTick, goldenRecoverTick)
	p1.Close()

	p2 := open()
	if _, err := Recover(p2, snap, jpath); err != nil {
		t.Fatal(err)
	}
	if a, b := servedDigest(t, p1), servedDigest(t, p2); a != b {
		t.Fatalf("recovered state differs from served state:\nserved:    %s\nrecovered: %s", a, b)
	}
	d.run(t, p2, goldenRecoverTick, goldenTotalTicks)
	return p2, snap, jpath
}

// servedDigest summarises the served state: headline counters in clear,
// then SHA-256 prefixes of GET /v1/assignments and GET /v1/instance.
func servedDigest(t *testing.T, p *Platform) string {
	t.Helper()
	h := Handler(p)
	body := func(path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body.String())
		}
		sum := sha256.Sum256(rec.Body.Bytes())
		return hex.EncodeToString(sum[:8])
	}
	s := p.StatsView()
	return fmt.Sprintf("batches=%d workers=%d tasks=%d assigned=%d wasted=%d rogue=%d assignments=%s instance=%s",
		s.Batches, s.Workers, s.Tasks, s.AssignedTasks, s.WastedPairs, s.RoguePairs,
		body("/v1/assignments"), body("/v1/instance"))
}

// TestServerGoldenDigest pins the served assignments and registries of a
// long churn-then-steady stream, both as served and as rebuilt by replaying
// the snapshot and journal the stream left behind.
func TestServerGoldenDigest(t *testing.T) {
	for alg, want := range goldenDigests {
		t.Run(alg, func(t *testing.T) {
			p, snap, jpath := runGoldenStream(t, alg, nil, nil)
			got := servedDigest(t, p)
			if got != want {
				t.Errorf("served digest\n got: %s\nwant: %s", got, want)
			}
			alloc, _ := core.NewByName(alg, 7)
			replayed, err := NewPlatform(Config{Allocator: alloc, ServiceTime: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Recover(replayed, snap, jpath); err != nil {
				t.Fatal(err)
			}
			if r := servedDigest(t, replayed); r != want {
				t.Errorf("replayed digest\n got: %s\nwant: %s", r, want)
			}
		})
	}
}
