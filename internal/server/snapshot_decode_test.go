package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"dasc/internal/core"
	"dasc/internal/dataset"
	"dasc/internal/model"
)

// goldenV1Snapshot is a schema v1 snapshot written by the encoder before the
// one-pass decoder existed: the first 12 ticks of the golden stream under
// Closest, with assignments, botched tasks and dependencies.
const goldenV1Snapshot = "testdata/golden_v1.snap"

// restoreVia restores b into a fresh platform through the one-pass decoder
// (fast) or the strict decoder alone. A fast decode that bails fails the
// test.
func restoreVia(t *testing.T, b []byte, fast bool) (*Platform, error) {
	t.Helper()
	var d *snapshotDoc
	if fast {
		var ok bool
		if d, ok = scanSnapshot(b); !ok {
			t.Fatal("one-pass decoder bailed")
		}
	} else {
		var err error
		if d, err = decodeSnapshotStrict(b); err != nil {
			t.Fatalf("strict decoder: %v", err)
		}
	}
	p, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p, p.restoreLocked(d)
}

// requireSameRestore fails unless a and b hold the same restored state:
// registries, assignment log, and everything the snapshot carries (clock,
// counters, worker books, task books).
func requireSameRestore(t *testing.T, a, b *Platform) {
	t.Helper()
	if !reflect.DeepEqual(a.workers, b.workers) {
		t.Fatal("restored worker registries differ")
	}
	if !reflect.DeepEqual(a.tasks, b.tasks) {
		t.Fatal("restored task registries differ")
	}
	if !reflect.DeepEqual(a.assignLog, b.assignLog) {
		t.Fatalf("restored assignment logs differ: %v vs %v", a.assignLog, b.assignLog)
	}
	if sa, sb := snapshotOf(t, a), snapshotOf(t, b); !bytes.Equal(sa, sb) {
		t.Fatalf("restored states differ:\n%s\n%s", sa, sb)
	}
}

// requireBothPathsAgree restores b through both decoders, requires the
// one-pass decoder to recognise it, both restores to succeed identically,
// and the restored platform to write b back byte for byte.
func requireBothPathsAgree(t *testing.T, b []byte) {
	t.Helper()
	pf, err := restoreVia(t, b, true)
	if err != nil {
		t.Fatalf("one-pass restore: %v", err)
	}
	ps, err := restoreVia(t, b, false)
	if err != nil {
		t.Fatalf("strict restore: %v", err)
	}
	requireSameRestore(t, pf, ps)
	if again := snapshotOf(t, pf); !bytes.Equal(again, b) {
		t.Fatalf("restored platform writes a different snapshot:\n%s\n%s", b, again)
	}
}

// legacySnapshot is the snapshot writer before the instance was spliced
// in: the compact instance encoded on its own into a buffer, which
// encoding/json then compacted again as the RawMessage member of one
// snapshotFile.
func legacySnapshot(t *testing.T, p *Platform) []byte {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	var inst bytes.Buffer
	if err := dataset.WriteCompact(&inst, p.InstanceView()); err != nil {
		t.Fatal(err)
	}
	sf := snapshotFile{
		Version: SnapshotVersion, Now: p.now,
		Batches: p.batches, Wasted: p.wasted, Rogue: p.rogue,
		Instance: json.RawMessage(inst.Bytes()),
		Workers:  make([]snapshotWorkerState, len(p.workers)),
	}
	for i := range p.workers {
		ws := p.kernel.Worker(&p.workers[i])
		sf.Workers[i] = snapshotWorkerState{
			X: ws.Loc.X, Y: ws.Loc.Y,
			BusyUntil: ws.BusyUntil, DistUsed: ws.DistUsed, Done: ws.Done,
		}
	}
	for i := range p.tasks {
		id := p.tasks[i].ID
		tb := p.kernel.Task(id)
		if tb.Assigned {
			sf.Assigned = append(sf.Assigned, snapshotAssigned{Task: id, Worker: tb.Worker, FinishAt: tb.FinishAt})
		}
		if tb.Botched {
			sf.Botched = append(sf.Botched, id)
		}
	}
	var out bytes.Buffer
	if err := json.NewEncoder(&out).Encode(&sf); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// snapshotScenarios returns platforms in the shapes the server tests
// snapshot: empty, registered but never ticked, the example after two
// ticks, a botched and a twice-dispatched task, a history of expired and
// assigned registrations, and the end of the golden stream (through a
// recovery) for each pinned allocator.
func snapshotScenarios(t *testing.T) map[string]*Platform {
	t.Helper()
	out := map[string]*Platform{}
	newP := func(cfg Config) *Platform {
		p, err := NewPlatform(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	out["empty"] = newP(Config{Allocator: core.NewGreedy()})

	registered := newP(Config{Allocator: core.NewGreedy()})
	ex := model.Example1()
	for _, w := range ex.Workers {
		if _, err := registered.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, tk := range ex.Tasks {
		if _, err := registered.AddTask(tk); err != nil {
			t.Fatal(err)
		}
	}
	out["registered"] = registered

	example := newP(Config{Allocator: core.NewGreedy()})
	driveExample(t, example)
	out["example"] = example

	blind := newP(Config{Allocator: blindAllocator{}, ServiceTime: 1})
	for i := 0; i < 2; i++ {
		if _, err := blind.AddWorker(model.Worker{
			Loc: pt(float64(i), 0), Wait: 100, Velocity: 1, MaxDist: 100, Skills: model.NewSkillSet(0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range []model.Task{
		{Loc: pt(0, 3), Start: 5, Wait: 100, Requires: 0},
		{Loc: pt(0, 1), Wait: 100, Requires: 0, Deps: []model.TaskID{0}},
		{Loc: pt(0, 2), Wait: 100, Requires: 0},
	} {
		if _, err := blind.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := blind.Tick(0); err != nil {
		t.Fatal(err)
	}
	out["botched"] = blind

	out["history"] = snapshotBenchPlatform(t, 5000)
	for alg := range goldenDigests {
		p, _, _ := runGoldenStream(t, alg, nil, nil)
		out["golden "+alg] = p
	}
	return out
}

// TestSnapshotWriterMatchesLegacyEncoder pins the spliced writer to the
// encoder it replaced, byte for byte.
func TestSnapshotWriterMatchesLegacyEncoder(t *testing.T) {
	for name, p := range snapshotScenarios(t) {
		if got, want := snapshotOf(t, p), legacySnapshot(t, p); !bytes.Equal(got, want) {
			t.Errorf("%s: snapshot differs from the legacy encoder's:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestSnapshotFastPathRecognisesWrittenSnapshots: the one-pass decoder must
// read every snapshot the platform writes, not bail to the strict decoder,
// and restore exactly what the strict decoder restores. A decoder that
// silently always bailed would pass every other test.
func TestSnapshotFastPathRecognisesWrittenSnapshots(t *testing.T) {
	for name, p := range snapshotScenarios(t) {
		t.Run(name, func(t *testing.T) {
			requireBothPathsAgree(t, snapshotOf(t, p))
		})
	}
}

// TestSnapshotV1FileLoadsThroughBothPaths: a committed schema v1 snapshot
// written by the earlier encoder loads identically through both decoders,
// through Recover, and is written back byte for byte.
func TestSnapshotV1FileLoadsThroughBothPaths(t *testing.T) {
	b, err := os.ReadFile(goldenV1Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	requireBothPathsAgree(t, b)
	p, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Recover(p, goldenV1Snapshot, "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.SnapshotBytes != int64(len(b)) {
		t.Errorf("recovery reports %d snapshot bytes, want %d", rep.SnapshotBytes, len(b))
	}
	if got := snapshotOf(t, p); !bytes.Equal(got, b) {
		t.Fatal("recovered platform writes a different snapshot")
	}
}

// TestReadSnapshotErrorsUnchanged: the semantic checks run once, on either
// decoder's result, with their wording unchanged; decode errors are the
// strict decoder's.
func TestReadSnapshotErrorsUnchanged(t *testing.T) {
	good := `{"version":1,"now":5,"batches":2,"wasted":0,"rogue":0,"instance":{"version":1,"skill_universe":0,` +
		`"workers":[{"id":0,"x":0,"y":0,"start":0,"wait":9,"velocity":1,"max_dist":9,"skills":[0]}],` +
		`"tasks":[{"id":0,"x":1,"y":0,"start":0,"wait":9,"requires":0},{"id":1,"x":1,"y":0,"start":0,"wait":9,"requires":0,"deps":[0]}]},` +
		`"assigned":[{"task":0,"worker":0,"finish_at":2}],"botched":[1],` +
		`"worker_state":[{"x":1,"y":0,"busy_until":2,"dist_used":1,"done":1}]}`
	requireBothPathsAgree(t, []byte(good+"\n"))
	cases := []struct{ body, want string }{
		{`{"version":2` + good[len(`{"version":1`):], "server: unsupported snapshot version 2 (want 1)"},
		{`{"version":1,"instance":{"version":3}}`, "server: snapshot instance: dataset: unsupported format version 3 (want 1)"},
		{`{"version":1}`, "server: snapshot instance: dataset: decode: EOF"},
		{`{"version":1,"instance":{"version":1,"workers":[{"id":0,"wait":1,"skills":[]}]}}`,
			"server: snapshot instance: dataset: model: worker w0 has no skills"},
		{`{"version":1,"instance":{"version":1,"workers":[{"id":0,"wait":1,"skills":[-1]}]}}`,
			"server: snapshot instance: dataset: worker w0 has negative skill -1"},
		{`{"version":1,"instance":{"version":1,"workers":[{"id":0,"wait":1,"skills":[0]}]},"worker_state":[]}`,
			"server: snapshot has 0 worker states for 1 workers"},
		{`{"version":1,"instance":{"version":1,"tasks":[{"id":0,"wait":1}]},"assigned":[{"task":0,"worker":0}]}`,
			"server: snapshot assignment (w0, t0) out of range"},
		{`{"version":1,"instance":{"version":1,"workers":[{"id":0,"wait":1,"skills":[0]}],"tasks":[{"id":0,"wait":1}]},` +
			`"assigned":[{"task":0,"worker":0},{"task":0,"worker":0}],"worker_state":[{}]}`,
			"server: snapshot assigns task t0 twice"},
		{`{"version":1,"instance":{"version":1},"botched":[3]}`, "server: snapshot botched task t3 out of range"},
		{`{"version":1,"extra":0}`, `server: snapshot decode: json: unknown field "extra"`},
		{`{"version":1,"now":+1}`, "server: snapshot decode: invalid character '+' looking for beginning of value"},
		{`{"version":1.5}`, "server: snapshot decode: json: cannot unmarshal number 1.5 into Go struct field snapshotFile.version of type int"},
	}
	for _, c := range cases {
		p, err := NewPlatform(Config{Allocator: core.NewGreedy()})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.ReadSnapshot(bytes.NewReader([]byte(c.body))); err == nil || err.Error() != c.want {
			t.Errorf("%s:\n got %v\nwant %s", c.body, err, c.want)
		}
	}
}

// FuzzReadSnapshot: ReadSnapshot never panics on arbitrary bytes. Whenever
// the one-pass decoder recognises the input, the strict decoder accepts it
// too, and both restores end alike: the same error text, or identical
// platforms. Inputs the strict decoder rejects are therefore always left to
// it.
func FuzzReadSnapshot(f *testing.F) {
	// More seeds, written by the platform, are under testdata/fuzz.
	f.Add([]byte(`{"version":1,"now":0,"batches":0,"wasted":0,"rogue":0,"instance":{"version":1,"skill_universe":0,"workers":[],"tasks":[]},"assigned":null,"worker_state":[]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := NewPlatform(Config{Allocator: core.NewGreedy()})
		if err != nil {
			t.Fatal(err)
		}
		_ = p.ReadSnapshot(bytes.NewReader(b)) // rejection is fine; panics are not
		if _, ok := scanSnapshot(b); !ok {
			return
		}
		if _, err := decodeSnapshotStrict(b); err != nil {
			t.Fatalf("one-pass decoder accepted a snapshot the strict decoder rejects: %v", err)
		}
		pf, ferr := restoreVia(t, b, true)
		ps, serr := restoreVia(t, b, false)
		if fmt.Sprint(ferr) != fmt.Sprint(serr) {
			t.Fatalf("restores disagree: one-pass %v, strict %v", ferr, serr)
		}
		if ferr == nil {
			requireSameRestore(t, pf, ps)
		}
	})
}
