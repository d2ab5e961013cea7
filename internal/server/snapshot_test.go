package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dasc/internal/core"
	"dasc/internal/model"
)

// stateString folds the platform's logical state into one comparable
// string: clock, counters and the full assignment. Cache/memo observability
// counters are excluded — a freshly restored platform rightly starts those
// at zero.
func stateString(p *Platform) string {
	s := p.Snapshot()
	return fmt.Sprintf("now=%v batches=%d workers=%d tasks=%d assigned=%d wasted=%d rogue=%d|%s",
		s.Now, s.Batches, s.Workers, s.Tasks, s.AssignedTasks, s.WastedPairs, s.RoguePairs,
		p.AssignmentsView().String())
}

func TestSnapshotRoundTrip(t *testing.T) {
	p1, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	driveExample(t, p1)

	var buf bytes.Buffer
	if err := p1.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	p2, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err := p2.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if s1, s2 := stateString(p1), stateString(p2); s1 != s2 {
		t.Fatalf("restored state differs:\n%s\n%s", s1, s2)
	}

	// The restored platform must also evolve identically: worker locations,
	// distance budgets and busy windows all feed future ticks.
	if _, err := p1.Tick(10); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Tick(10); err != nil {
		t.Fatal(err)
	}
	if s1, s2 := stateString(p1), stateString(p2); s1 != s2 {
		t.Fatalf("post-restore tick diverged:\n%s\n%s", s1, s2)
	}
}

func TestReadSnapshotRejectsNonEmptyPlatform(t *testing.T) {
	p1, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
	driveExample(t, p1)
	var buf bytes.Buffer
	if err := p1.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := p1.ReadSnapshot(&buf); err == nil {
		t.Fatal("restore into non-empty platform accepted")
	}
}

func TestReadSnapshotRejectsCorruptSnapshots(t *testing.T) {
	p1, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
	driveExample(t, p1)
	var buf bytes.Buffer
	if err := p1.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	cases := map[string]string{
		"garbage":       "not json",
		"wrong version": strings.Replace(good, `"version":1`, `"version":99`, 1),
		"bad worker ix": strings.Replace(good, `"worker":2`, `"worker":99`, 1),
		"bad task ix":   strings.Replace(good, `"task":0`, `"task":99`, 1),
	}
	for name, body := range cases {
		if body == good {
			t.Fatalf("%s: replacement did not apply", name)
		}
		p, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
		if err := p.ReadSnapshot(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSaveSnapshotRotatesJournalAndRecoverReplaysOnlyTail(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "platform.jsonl")
	spath := filepath.Join(dir, "platform.snap")
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	p1, _ := NewPlatform(Config{Allocator: core.NewGreedy(), Journal: j})
	driveExample(t, p1) // 8 registrations + 2 ticks

	info, err := p1.SaveSnapshot(spath)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Rotated || info.Bytes == 0 {
		t.Fatalf("snapshot info = %+v", info)
	}
	if fi, _ := os.Stat(jpath); fi.Size() != 0 {
		t.Fatalf("journal not rotated: %d bytes", fi.Size())
	}

	// Post-snapshot activity lands in the (short) journal tail.
	if _, err := p1.AddWorker(model.Worker{Loc: pt(3, 3), Wait: 100, Velocity: 1, MaxDist: 100, Skills: model.NewSkillSet(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Tick(10); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}

	p2, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
	rep, err := Recover(p2, spath, jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SnapshotLoaded {
		t.Error("snapshot not loaded")
	}
	// Recovery must replay only the post-snapshot tail, not the 2 ticks the
	// snapshot already absorbed.
	if rep.Replay.Ticks != 1 || rep.Replay.Entries != 2 {
		t.Errorf("tail replay = %d entries / %d ticks, want 2 / 1", rep.Replay.Entries, rep.Replay.Ticks)
	}
	if s1, s2 := stateString(p1), stateString(p2); s1 != s2 {
		t.Fatalf("recovered state differs:\n%s\n%s", s1, s2)
	}
}

func TestAutoSnapshotEveryNTicks(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "platform.jsonl")
	spath := filepath.Join(dir, "platform.snap")
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	p1, _ := NewPlatform(Config{
		Allocator: core.NewGreedy(), Journal: j,
		SnapshotPath: spath, SnapshotEvery: 2,
	})
	driveExample(t, p1) // 2 ticks → exactly one automatic snapshot
	if _, err := os.Stat(spath); err != nil {
		t.Fatalf("automatic snapshot missing: %v", err)
	}
	if fi, _ := os.Stat(jpath); fi.Size() != 0 {
		t.Fatalf("journal not rotated by automatic snapshot: %d bytes", fi.Size())
	}
	p2, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
	rep, err := Recover(p2, spath, jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SnapshotLoaded || rep.Replay.Entries != 0 {
		t.Errorf("recovery = %+v, want snapshot only", rep)
	}
	if s1, s2 := stateString(p1), stateString(p2); s1 != s2 {
		t.Fatalf("recovered state differs:\n%s\n%s", s1, s2)
	}
}

func TestRecoverTruncatesTornTailFromFile(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "platform.jsonl")
	full, _ := journalBytes(t)
	last := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1
	cut := last + (len(full)-last)/2
	if err := os.WriteFile(jpath, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	p2, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
	rep, err := Recover(p2, "", jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Replay.TornTail {
		t.Error("torn tail not reported")
	}
	// The torn fragment must be gone from disk: appending new events after
	// recovery must not bury a partial line mid-file.
	if fi, _ := os.Stat(jpath); fi.Size() != int64(last) {
		t.Fatalf("journal = %d bytes after recovery, want %d", fi.Size(), last)
	}
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	p2.mu.Lock()
	p2.journal = j
	p2.mu.Unlock()
	if _, err := p2.Tick(20); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	p3, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
	if rep, err := Recover(p3, "", jpath); err != nil {
		t.Fatalf("second recovery after post-torn appends: %v", err)
	} else if rep.Replay.TornTail {
		t.Error("second recovery still sees a torn tail")
	}
	if p3.Snapshot().Batches != p2.Snapshot().Batches {
		t.Errorf("batches = %d, want %d", p3.Snapshot().Batches, p2.Snapshot().Batches)
	}
}

// TestReplayTruncatedAtEveryByteOffset is the crash-injection property test:
// for a valid journal cut at EVERY byte offset, replay must never panic and
// must restore exactly the state of the journal's complete-line prefix — or,
// when the cut lands precisely at the end of a line's JSON (newline lost but
// entry complete), that line applied too.
func TestReplayTruncatedAtEveryByteOffset(t *testing.T) {
	full, _ := journalBytes(t)

	// Reference states after each complete-line prefix.
	var prefixes []int // byte offset of each line end
	for i, b := range full {
		if b == '\n' {
			prefixes = append(prefixes, i+1)
		}
	}
	states := make([]string, 0, len(prefixes)+1)
	lineOf := make(map[int]int, len(prefixes)) // content-end offset → line index
	p0, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
	states = append(states, stateString(p0))
	for k, end := range prefixes {
		p, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
		if _, err := ReplayJournal(bytes.NewReader(full[:end]), p); err != nil {
			t.Fatalf("clean prefix of %d lines rejected: %v", k+1, err)
		}
		states = append(states, stateString(p))
		lineOf[end-1] = k + 1 // cut just before '\n': line content complete
	}

	for off := 0; off <= len(full); off++ {
		// Count complete lines in full[:off].
		k := 0
		for _, end := range prefixes {
			if end <= off {
				k++
			}
		}
		p, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
		rep, err := ReplayJournal(bytes.NewReader(full[:off]), p)
		if err != nil {
			t.Fatalf("offset %d: replay failed: %v", off, err)
		}
		got := stateString(p)
		want := states[k]
		if got == want {
			continue
		}
		// The one legal alternative: the cut preserved the final line's
		// full JSON (only the newline is missing), so it applied.
		if n, ok := lineOf[off]; ok && !rep.TornTail && got == states[n] {
			continue
		}
		t.Fatalf("offset %d (%d complete lines): state diverged\n got %s\nwant %s", off, k, got, want)
	}
}

// snapshotOf returns p's snapshot bytes.
func snapshotOf(t testing.TB, p *Platform) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restored returns a fresh platform restored from snap.
func restored(t *testing.T, snap []byte, cfg Config) *Platform {
	t.Helper()
	p, _ := NewPlatform(cfg)
	if err := p.ReadSnapshot(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSnapshotBeforeAdmittingTick: a snapshot taken after registrations
// but before any tick admitted them carries one worker state per registered
// worker, at its registered location, and restores to a platform that then
// ticks exactly like the original.
func TestSnapshotBeforeAdmittingTick(t *testing.T) {
	p1, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
	ex := model.Example1()
	for _, w := range ex.Workers {
		if _, err := p1.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, tk := range ex.Tasks {
		if _, err := p1.AddTask(tk); err != nil {
			t.Fatal(err)
		}
	}
	snap := snapshotOf(t, p1)
	var sf snapshotFile
	if err := json.Unmarshal(snap, &sf); err != nil {
		t.Fatal(err)
	}
	if len(sf.Workers) != len(ex.Workers) {
		t.Fatalf("%d worker states for %d registered workers", len(sf.Workers), len(ex.Workers))
	}
	for i, ws := range sf.Workers {
		if w := ex.Workers[i]; ws != (snapshotWorkerState{X: w.Loc.X, Y: w.Loc.Y}) {
			t.Errorf("worker %d state %+v, want it unmoved at %v", i, ws, w.Loc)
		}
	}
	p2 := restored(t, snap, Config{Allocator: core.NewGreedy()})
	for _, now := range []float64{0, 5} {
		if _, err := p1.Tick(now); err != nil {
			t.Fatal(err)
		}
		if _, err := p2.Tick(now); err != nil {
			t.Fatal(err)
		}
		if s1, s2 := snapshotOf(t, p1), snapshotOf(t, p2); !bytes.Equal(s1, s2) {
			t.Fatalf("t=%v: restored platform diverged:\n%s\n%s", now, s1, s2)
		}
	}
}

// TestReadSnapshotRejectsWorkerStateCount: every registered worker needs
// exactly one worker state.
func TestReadSnapshotRejectsWorkerStateCount(t *testing.T) {
	p1, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
	driveExample(t, p1)
	var sf snapshotFile
	if err := json.Unmarshal(snapshotOf(t, p1), &sf); err != nil {
		t.Fatal(err)
	}
	for _, ws := range [][]snapshotWorkerState{sf.Workers[1:], append(sf.Workers, snapshotWorkerState{})} {
		bad := sf
		bad.Workers = ws
		body, err := json.Marshal(&bad)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
		if err := p.ReadSnapshot(bytes.NewReader(body)); err == nil {
			t.Errorf("%d worker states for %d workers accepted", len(ws), len(sf.Workers))
		}
	}
}

// blindAllocator pairs every pending task with a batch worker, ignoring
// feasibility and dependencies, and lists the last task a second time with
// the next worker.
type blindAllocator struct{}

func (blindAllocator) Name() string          { return "Blind" }
func (blindAllocator) DependencyAware() bool { return false }

func (blindAllocator) Assign(b *core.Batch) *model.Assignment {
	a := model.NewAssignment()
	n := len(b.Workers)
	for i, task := range b.Tasks {
		a.Add(b.Workers[i%n].W.ID, task.ID)
	}
	a.Add(b.Workers[len(b.Tasks)%n].W.ID, b.Tasks[len(b.Tasks)-1].ID)
	return a
}

// TestSnapshotRoundTripBotchedAndRepeated: a botched task and a task
// dispatched twice in one batch survive a snapshot round trip — the task
// stays botched, the repeated task keeps its last worker and finish time —
// and the restored platform writes the same snapshot and evolves the same.
func TestSnapshotRoundTripBotchedAndRepeated(t *testing.T) {
	p1, _ := NewPlatform(Config{Allocator: blindAllocator{}, ServiceTime: 1})
	for i := 0; i < 2; i++ {
		if _, err := p1.AddWorker(model.Worker{
			Loc: pt(float64(i), 0), Wait: 100, Velocity: 1, MaxDist: 100, Skills: model.NewSkillSet(0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// t1 depends on t0, which appears only at t=5: dispatching t1 at t=0
	// violates the dependency and botches it. t2 is dispatched twice.
	for _, task := range []model.Task{
		{Loc: pt(0, 3), Start: 5, Wait: 100, Requires: 0},
		{Loc: pt(0, 1), Wait: 100, Requires: 0, Deps: []model.TaskID{0}},
		{Loc: pt(0, 2), Wait: 100, Requires: 0},
	} {
		if _, err := p1.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	out, err := p1.Tick(0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Wasted != 1 || len(out.Assigned) != 2 {
		t.Fatalf("tick: assigned %v, wasted %d; want t2 twice and t1 wasted", out.Assigned, out.Wasted)
	}
	// A worker registered after the tick has no dispatch state yet.
	if _, err := p1.AddWorker(model.Worker{Loc: pt(9, 9), Wait: 100, Velocity: 1, MaxDist: 100, Skills: model.NewSkillSet(0)}); err != nil {
		t.Fatal(err)
	}
	snap := snapshotOf(t, p1)
	var sf snapshotFile
	if err := json.Unmarshal(snap, &sf); err != nil {
		t.Fatal(err)
	}
	last := out.Assigned[1]
	if len(sf.Botched) != 1 || sf.Botched[0] != 1 {
		t.Errorf("botched %v, want [t1]", sf.Botched)
	}
	if len(sf.Assigned) != 1 || sf.Assigned[0].Task != 2 || sf.Assigned[0].Worker != last.Worker {
		t.Errorf("assigned %+v, want t2 on its last worker w%d", sf.Assigned, last.Worker)
	}
	if len(sf.Workers) != 3 || sf.Workers[2] != (snapshotWorkerState{X: 9, Y: 9}) {
		t.Errorf("worker states %+v, want 3 with w2 unmoved", sf.Workers)
	}
	p2 := restored(t, snap, Config{Allocator: blindAllocator{}, ServiceTime: 1})
	if s2 := snapshotOf(t, p2); !bytes.Equal(snap, s2) {
		t.Fatalf("restored snapshot differs:\n%s\n%s", snap, s2)
	}
	if got := p2.AssignmentsView().String(); got != p1.AssignmentsView().String() {
		t.Fatalf("restored assignments %s, want %s", got, p1.AssignmentsView())
	}
	for _, p := range []*Platform{p1, p2} {
		if _, err := p.Tick(6); err != nil {
			t.Fatal(err)
		}
	}
	if s1, s2 := snapshotOf(t, p1), snapshotOf(t, p2); !bytes.Equal(s1, s2) {
		t.Fatalf("post-restore tick diverged:\n%s\n%s", s1, s2)
	}
}

// botchingAllocator reports itself dependency-aware, yet on top of its
// inner allocator's pairs it dispatches the first batch task left out whose
// dependency is unmet, with a worker left idle. The dispatch violates
// constraint 4 and botches the task, which dooms its dependants.
type botchingAllocator struct{ inner core.Allocator }

func (botchingAllocator) Name() string { return "Botching" }

func (botchingAllocator) DependencyAware() bool { return true }

func (a botchingAllocator) Assign(b *core.Batch) *model.Assignment {
	out := a.inner.Assign(b)
	busy := map[model.WorkerID]bool{}
	taken := map[model.TaskID]bool{}
	for _, pair := range out.Pairs {
		busy[pair.Worker], taken[pair.Task] = true, true
	}
	for _, task := range b.Tasks {
		if taken[task.ID] {
			continue
		}
		for _, dep := range task.Deps {
			if b.Satisfied.Has(dep) || taken[dep] {
				continue
			}
			for i := range b.Workers {
				if w := b.Workers[i].W.ID; !busy[w] {
					out.Add(w, task.ID)
					return out
				}
			}
			return out
		}
	}
	return out
}

// TestRecoverRetiresDependantsOfBotchedTasks: which tasks are gone is
// derived state, so a platform recovered from a snapshot plus the journal
// tail must retire the dependants of tasks botched before the snapshot
// exactly as the platform that served them does. Every tick registers
// a_k, which depends on t0 (nobody can serve t0, so it stays pending and
// the allocator botches a_k), b_k, which depends on a_{k-1} and so is doomed
// by a botched task alone, and an independent c_k. After the recovery both
// platforms take the same registrations and ticks: every tick the recovered
// platform must be offered the oracle's population, the served platform
// the same one, and both must make the same assignments.
func TestRecoverRetiresDependantsOfBotchedTasks(t *testing.T) {
	dir := t.TempDir()
	snap, jpath := filepath.Join(dir, "state.snap"), filepath.Join(dir, "journal.jsonl")
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	servedRec := &batchRecorder{Allocator: botchingAllocator{core.NewGreedy()}}
	served, err := NewPlatform(Config{Allocator: servedRec, ServiceTime: 0.5, Journal: j, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { served.Close() })
	register := func(p *Platform, k int) {
		t.Helper()
		if k == 0 {
			for i := 0; i < 2; i++ {
				if _, err := p.AddWorker(model.Worker{Wait: 100, Velocity: 1, MaxDist: 100, Skills: model.NewSkillSet(0)}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := p.AddTask(model.Task{Wait: 100, Requires: 5}); err != nil {
				t.Fatal(err)
			}
		}
		now := float64(k)
		tasks := []model.Task{{Start: now, Wait: 100, Deps: []model.TaskID{0}}}
		if k > 0 {
			// t0 is followed by a_0, c_0, then a_k, b_k, c_k per tick; the
			// platform closes b_k's set with t0.
			prevA := model.TaskID(max(1, 3*(k-1)))
			tasks = append(tasks, model.Task{Start: now, Wait: 100, Deps: []model.TaskID{prevA}})
		}
		tasks = append(tasks, model.Task{Start: now, Wait: 100})
		for _, task := range tasks {
			if _, err := p.AddTask(task); err != nil {
				t.Fatal(err)
			}
		}
	}
	tick := func(p *Platform, k int) *BatchOutcome {
		t.Helper()
		out, err := p.Tick(float64(k))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for k := 0; k < 5; k++ {
		register(served, k)
		tick(served, k)
		if k == 2 {
			if _, err := served.SaveSnapshot(snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	recRec := &batchRecorder{Allocator: botchingAllocator{core.NewGreedy()}}
	recovered, err := NewPlatform(Config{Allocator: recRec, ServiceTime: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(recovered, snap, jpath); err != nil {
		t.Fatal(err)
	}
	retired := 0
	for k := 5; k < 10; k++ {
		servedRec.reset()
		recRec.reset()
		register(served, k)
		register(recovered, k)
		recovered.mu.Lock()
		wantW, wantT, r := oraclePopulation(recovered, float64(k))
		recovered.mu.Unlock()
		so, ro := tick(served, k), tick(recovered, k)
		retired += r
		if !reflect.DeepEqual(recRec.workers, wantW) || !reflect.DeepEqual(recRec.tasks, wantT) {
			t.Fatalf("t=%d: recovered platform was offered tasks %v, oracle %v", k, recRec.tasks, wantT)
		}
		if !reflect.DeepEqual(servedRec.tasks, recRec.tasks) || !reflect.DeepEqual(servedRec.workers, recRec.workers) {
			t.Fatalf("t=%d: served platform was offered tasks %v, recovered %v", k, servedRec.tasks, recRec.tasks)
		}
		if !reflect.DeepEqual(so.Assigned, ro.Assigned) || so.Wasted != ro.Wasted {
			t.Fatalf("t=%d: served assigned %v (wasted %d), recovered %v (wasted %d)", k, so.Assigned, so.Wasted, ro.Assigned, ro.Wasted)
		}
	}
	if retired == 0 {
		t.Fatal("no task retired after the recovery")
	}
	if a, b := servedDigest(t, served), servedDigest(t, recovered); a != b {
		t.Fatalf("served and recovered platforms diverged:\nserved:    %s\nrecovered: %s", a, b)
	}
}
