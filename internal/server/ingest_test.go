package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dasc/internal/core"
	"dasc/internal/dataset"
	"dasc/internal/model"
	"dasc/internal/obs"
)

// failAfterWriter allows a fixed number of writes, then fails every later
// one with errDiskFull — a disk that fills up mid-run. Successful writes are
// kept so the journal prefix can be replayed and compared against served
// state.
type failAfterWriter struct {
	mu        sync.Mutex
	buf       bytes.Buffer
	remaining int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.remaining <= 0 {
		return 0, errDiskFull
	}
	w.remaining--
	return w.buf.Write(p)
}

func (w *failAfterWriter) bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.buf.Bytes()...)
}

func exWorker(i int) model.Worker {
	return model.Worker{
		Loc: pt(float64(i), 1), Wait: 100, Velocity: 1, MaxDist: 100,
		Skills: model.NewSkillSet(model.Skill(i % 4)),
	}
}

func exTask(i int) model.Task {
	return model.Task{
		Loc: pt(float64(i), 2), Wait: 100,
		Requires: model.Skill(i % 4), Weight: 1,
	}
}

// assertReplayMatchesServed replays journal bytes into a fresh platform and
// requires its registries to be byte-identical (through the dataset codec)
// to the platform that served the writes.
func assertReplayMatchesServed(t *testing.T, p *Platform, journal []byte) {
	t.Helper()
	p2, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayJournal(bytes.NewReader(journal), p2); err != nil {
		t.Fatalf("replay: %v", err)
	}
	var served, replayed bytes.Buffer
	if err := dataset.WriteCompact(&served, p.InstanceView()); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCompact(&replayed, p2.InstanceView()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served.Bytes(), replayed.Bytes()) {
		t.Errorf("journal replay diverges from served state:\nserved:   %s\nreplayed: %s",
			served.Bytes(), replayed.Bytes())
	}
}

// TestAddWorkerJournalFailureAtomic pins the journal/state divergence bug on
// a lone registrant's commit: when the journal write fails, the
// registration must not be published (the old code published first and journaled second, so a
// disk failure left served state ahead of the journal — acknowledged workers
// vanished on restart). Journal first means replayed state always equals
// served state, before and after the failure.
func TestAddWorkerJournalFailureAtomic(t *testing.T) {
	fw := &failAfterWriter{remaining: 2}
	p, err := NewPlatform(Config{Allocator: core.NewGreedy(), Journal: NewJournal(fw, nil)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := p.AddWorker(exWorker(i)); err != nil {
			t.Fatal(err)
		}
	}
	id, err := p.AddWorker(exWorker(2))
	if err == nil {
		t.Fatal("AddWorker succeeded on a failing journal")
	}
	if !errors.Is(err, ErrJournal) {
		t.Errorf("error = %v, want ErrJournal", err)
	}
	if !errors.Is(err, errDiskFull) {
		t.Errorf("error = %v does not unwrap to the disk error", err)
	}
	if id != 0 {
		t.Errorf("failed AddWorker returned ID %d, want 0", id)
	}
	if _, err := p.AddTask(exTask(0)); err == nil {
		t.Error("AddTask succeeded on a failing journal")
	}
	if st := p.Snapshot(); st.Workers != 2 || st.Tasks != 0 {
		t.Errorf("served %d workers %d tasks after journal failure, want 2 and 0", st.Workers, st.Tasks)
	}
	assertReplayMatchesServed(t, p, fw.bytes())
}

// TestIngestJournalFailureFailsWholeDrain is the same regression for a
// group: a drain whose single journal append fails must fail every
// registration in it and publish nothing.
func TestIngestJournalFailureFailsWholeDrain(t *testing.T) {
	fw := &failAfterWriter{remaining: 1}
	p, err := NewPlatform(Config{
		Allocator: core.NewGreedy(), Journal: NewJournal(fw, nil),
		IngestQueue: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// First drain commits fine and spends the last good write.
	if _, err := p.AddWorker(exWorker(0)); err != nil {
		t.Fatal(err)
	}

	// Stall the platform mutex while three registrations arrive: they
	// commit in one or two groups, and every group fails.
	p.mu.Lock()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	ids := make([]model.WorkerID, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i], errs[i] = p.RegisterWorkerTagged(exWorker(i+1), fmt.Sprint("r", i))
		}(i)
	}
	waitFor(t, func() bool {
		return p.reg.Counter(obs.MIngestEnqueuedTotal).Value() == 4
	})
	p.mu.Unlock()
	wg.Wait()

	for i := range errs {
		if !errors.Is(errs[i], ErrJournal) {
			t.Errorf("registration %d: error = %v, want ErrJournal", i, errs[i])
		}
		if ids[i] != 0 {
			t.Errorf("registration %d: ID = %d, want 0 on failure", i, ids[i])
		}
	}
	if st := p.Snapshot(); st.Workers != 1 {
		t.Errorf("served %d workers, want 1 (failed drain must publish nothing)", st.Workers)
	}
	failed := 0
	for _, d := range p.IngestDrains(10)[1:] {
		if d.Committed != 0 || d.Failed != d.Requests || len(d.RequestIDs) != 0 {
			t.Errorf("drain %+v committed part of a failed group", d)
		}
		failed += d.Failed
	}
	if failed != 3 {
		t.Errorf("failed drains answered %d registrations, want 3", failed)
	}
	assertReplayMatchesServed(t, p, fw.bytes())
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIngestGroupCommit checks what one group commit journals: with the
// platform mutex stalled, a burst of concurrent registrations (half through
// AddWorker, half through RegisterWorkerTagged) commits in a handful of
// drains with one v2 batch line and one fsync each; registrations one
// after another each lead alone, one drain, one v1 line and one fsync
// apiece. Either way IDs are dense and unique and the journal replays to
// the served state.
func TestIngestGroupCommit(t *testing.T) {
	const n = 40
	for _, tc := range []struct {
		name  string
		burst bool
	}{{"burst", true}, {"sequential", false}} {
		t.Run(tc.name, func(t *testing.T) {
			jpath := filepath.Join(t.TempDir(), "events.jsonl")
			j, err := OpenJournalMode(jpath, FsyncAlways, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			p, err := NewPlatform(Config{Allocator: core.NewGreedy(), Journal: j})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			ids := make([]model.WorkerID, n)
			register := func(i int) {
				var err error
				if i%2 == 0 {
					ids[i], err = p.AddWorker(exWorker(i))
				} else {
					ids[i], err = p.RegisterWorkerTagged(exWorker(i), fmt.Sprint("r", i))
				}
				if err != nil {
					t.Errorf("register %d: %v", i, err)
				}
			}
			if tc.burst {
				p.mu.Lock()
				var wg sync.WaitGroup
				for i := 0; i < n; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						register(i)
					}(i)
				}
				waitFor(t, func() bool {
					return p.reg.Counter(obs.MIngestEnqueuedTotal).Value() == n
				})
				p.mu.Unlock()
				wg.Wait()
			} else {
				for i := 0; i < n; i++ {
					register(i)
				}
			}

			seen := make(map[model.WorkerID]bool, n)
			for _, id := range ids {
				if id < 0 || int(id) >= n || seen[id] {
					t.Fatalf("IDs not a dense unique 0..%d assignment: %v", n-1, ids)
				}
				seen[id] = true
			}
			drains := p.reg.Counter(obs.MIngestDrainsTotal).Value()
			if fsyncs := p.reg.Counter(obs.MJournalFsyncsTotal).Value(); fsyncs != drains {
				t.Errorf("fsyncs = %d, drains = %d: want one fsync per drain", fsyncs, drains)
			}
			if got := p.reg.Counter(obs.MIngestCommittedTotal).Value(); got != n {
				t.Errorf("committed = %d, want %d", got, n)
			}
			raw, err := os.ReadFile(jpath)
			if err != nil {
				t.Fatal(err)
			}
			text := string(raw)
			if lines := strings.Count(text, "\n"); lines != int(drains) {
				t.Errorf("journal lines = %d, want one per drain (%d)", lines, drains)
			}
			batches := strings.Count(text, `"kind":"batch"`)
			if tc.burst {
				if drains < 1 || drains > 5 {
					t.Errorf("drains = %d for %d stalled registrations, want a handful (group commit)", drains, n)
				}
				if batches == 0 {
					t.Error("journal has no v2 batch record despite multi-entry drains")
				}
			} else if drains != n || batches != 0 {
				t.Errorf("drains = %d, batch records = %d for %d sequential registrations, want %d and 0", drains, batches, n, n)
			}
			assertReplayMatchesServed(t, p, raw)
		})
	}
}

// TestIngestFormationWindow checks the -ingest-wait gather behaviour: with a
// generous window, registrations that trickle in over tens of milliseconds
// still share ONE drain (one journal record, one fsync), and a drain that
// reaches IngestBatch commits without sitting out the rest of the window.
func TestIngestFormationWindow(t *testing.T) {
	t.Run("stragglers share a drain", func(t *testing.T) {
		var log safeBuffer
		p, err := NewPlatform(Config{
			Allocator: core.NewGreedy(), Journal: NewJournal(&log, nil),
			IngestQueue: 64, IngestWait: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()

		const n = 8
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				time.Sleep(time.Duration(i) * 5 * time.Millisecond)
				if _, err := p.AddWorker(exWorker(i)); err != nil {
					t.Errorf("register %d: %v", i, err)
				}
			}(i)
		}
		wg.Wait()
		if drains := p.reg.Counter(obs.MIngestDrainsTotal).Value(); drains != 1 {
			t.Errorf("drains = %d, want 1 (the window should gather every straggler)", drains)
		}
		if got := p.Snapshot().Workers; got != n {
			t.Errorf("workers = %d, want %d", got, n)
		}
		assertReplayMatchesServed(t, p, []byte(log.String()))
	})

	t.Run("full batch commits early", func(t *testing.T) {
		var log safeBuffer
		p, err := NewPlatform(Config{
			Allocator: core.NewGreedy(), Journal: NewJournal(&log, nil),
			IngestQueue: 64, IngestBatch: 2, IngestWait: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()

		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := p.AddWorker(exWorker(i)); err != nil {
					t.Errorf("register %d: %v", i, err)
				}
			}(i)
		}
		wg.Wait()
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("full drain took %v, want an immediate commit (not the window)", d)
		}
		if got := p.Snapshot().Workers; got != 2 {
			t.Errorf("workers = %d, want 2", got)
		}
	})

	t.Run("negative window rejected", func(t *testing.T) {
		_, err := NewPlatform(Config{
			Allocator: core.NewGreedy(), IngestQueue: 4, IngestWait: -time.Second,
		})
		if err == nil {
			t.Fatal("NewPlatform accepted a negative ingest formation window")
		}
	})
}

// safeBuffer is a bytes.Buffer usable as a journal sink from concurrent
// leaders while the test reads it.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestIngestBackpressure fills the bounded pending list and expects fast
// ErrIngestBacklog / HTTP 429 + Retry-After instead of unbounded queueing.
func TestIngestBackpressure(t *testing.T) {
	p, err := NewPlatform(Config{
		Allocator:   core.NewGreedy(),
		IngestQueue: 4,
		IngestBatch: 1, // each leader takes exactly one registration
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ts := httptest.NewServer(Handler(p))
	defer ts.Close()

	// Stall the group commit: the primer leads, takes itself as its group
	// and blocks on the platform mutex; everything after stays pending.
	p.mu.Lock()
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := p.AddWorker(exWorker(i)); err != nil {
				t.Errorf("registration %d: %v", i, err)
			}
		}(i)
		if i == 0 {
			waitFor(t, func() bool {
				depth, _ := p.IngestQueueDepth()
				return depth == 0 && p.reg.Counter(obs.MIngestEnqueuedTotal).Value() == 1
			})
		}
	}
	waitFor(t, func() bool { depth, _ := p.IngestQueueDepth(); return depth == 4 })
	if _, err := p.AddWorker(exWorker(9)); !errors.Is(err, ErrIngestBacklog) {
		t.Errorf("full pending list: error = %v, want ErrIngestBacklog", err)
	}
	if got := p.reg.Counter(obs.MIngestRejectedTotal).Value(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	resp, err := http.Post(ts.URL+"/v1/workers", "application/json",
		strings.NewReader(`{"x":1,"y":1,"wait":10,"velocity":1,"max_dist":10,"skills":[0]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	p.mu.Unlock()
	wg.Wait()
	if depth, _ := p.IngestQueueDepth(); depth != 0 {
		t.Errorf("pending after every registration returned = %d, want 0", depth)
	}
	if st := p.Snapshot(); st.Workers != 5 {
		t.Errorf("workers = %d, want the 5 admitted", st.Workers)
	}
}

// TestRegisterHTTPJournalFailure503 pins the error-classification fix: a
// journal (disk) failure is the server's fault — 503 + Retry-After, not the
// 422 the old code answered for every AddWorker error.
func TestRegisterHTTPJournalFailure503(t *testing.T) {
	// Zero is the default pending bound.
	for _, queue := range []int{0, 64} {
		t.Run(fmt.Sprintf("queue=%d", queue), func(t *testing.T) {
			p, err := NewPlatform(Config{
				Allocator:   core.NewGreedy(),
				Journal:     NewJournal(failingWriter{}, nil),
				IngestQueue: queue,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			ts := httptest.NewServer(Handler(p))
			defer ts.Close()

			resp, err := http.Post(ts.URL+"/v1/workers", "application/json",
				strings.NewReader(`{"x":1,"y":1,"wait":10,"velocity":1,"max_dist":10,"skills":[0]}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("journal failure: status = %d, want 503", resp.StatusCode)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("503 without Retry-After header")
			}

			// Validation failures must still be the client's 422.
			resp, err = http.Post(ts.URL+"/v1/tasks", "application/json",
				strings.NewReader(`{"x":1,"y":1,"wait":10,"requires":0,"deps":[99]}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Errorf("bad dependency: status = %d, want 422", resp.StatusCode)
			}

			// A journaled tick is a disk failure too.
			resp, err = http.Post(ts.URL+"/v1/tick?t=1", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("tick with failing journal: status = %d, want 503", resp.StatusCode)
			}
		})
	}
}

// TestNonFiniteRegistrationRejected checks every float field at the platform
// layer: NaN and ±Inf never reach the registries (they would poison every
// distance computation and serialise as invalid JSON).
func TestNonFiniteRegistrationRejected(t *testing.T) {
	p, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	workerMut := map[string]func(*model.Worker, float64){
		"x":        func(w *model.Worker, v float64) { w.Loc.X = v },
		"y":        func(w *model.Worker, v float64) { w.Loc.Y = v },
		"start":    func(w *model.Worker, v float64) { w.Start = v },
		"wait":     func(w *model.Worker, v float64) { w.Wait = v },
		"velocity": func(w *model.Worker, v float64) { w.Velocity = v },
		"max_dist": func(w *model.Worker, v float64) { w.MaxDist = v },
	}
	for name, mut := range workerMut {
		for _, v := range bad {
			w := exWorker(0)
			mut(&w, v)
			id, err := p.AddWorker(w)
			if err == nil {
				t.Errorf("AddWorker accepted %s = %v", name, v)
			}
			if id != 0 {
				t.Errorf("AddWorker(%s = %v) returned ID %d with error, want 0", name, v, id)
			}
		}
	}
	taskMut := map[string]func(*model.Task, float64){
		"x":      func(tk *model.Task, v float64) { tk.Loc.X = v },
		"y":      func(tk *model.Task, v float64) { tk.Loc.Y = v },
		"start":  func(tk *model.Task, v float64) { tk.Start = v },
		"wait":   func(tk *model.Task, v float64) { tk.Wait = v },
		"weight": func(tk *model.Task, v float64) { tk.Weight = v },
	}
	for name, mut := range taskMut {
		for _, v := range bad {
			tk := exTask(0)
			mut(&tk, v)
			id, err := p.AddTask(tk)
			if err == nil {
				t.Errorf("AddTask accepted %s = %v", name, v)
			}
			if id != 0 {
				t.Errorf("AddTask(%s = %v) returned ID %d with error, want 0", name, v, id)
			}
		}
	}
	if st := p.Snapshot(); st.Workers != 0 || st.Tasks != 0 {
		t.Errorf("non-finite registrations leaked into state: %+v", st)
	}
}

// TestNonFiniteDTORejected checks the HTTP vector that actually produces an
// infinity: a JSON number too large for float64. Neither the one-pass scan
// nor the strict decoder reads it, so no body carries NaN or ±Inf.
func TestNonFiniteDTORejected(t *testing.T) {
	p, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(p))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/workers", "application/json",
		strings.NewReader(`{"x":1e999,"y":1,"wait":10,"velocity":1,"max_dist":10,"skills":[0]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Errorf("overflowing JSON number: status = %d, want a 4xx rejection", resp.StatusCode)
	}
	if st := p.Snapshot(); st.Workers != 0 {
		t.Errorf("overflowing registration leaked into state")
	}
}

// TestJournalBatchRecord pins the v2 record format: what Batch writes, what
// Replay accepts, and which malformed shapes it rejects.
func TestJournalBatchRecord(t *testing.T) {
	var log bytes.Buffer
	j := NewJournal(&log, nil)
	w := exWorker(0)
	w.ID = 0
	tk := exTask(0)
	tk.ID = 0
	wr, tr := dataset.NewWorkerRecord(&w), dataset.NewTaskRecord(&tk)
	we := journalEntry{Kind: "worker", Worker: &wr}
	if err := j.Batch([]journalEntry{we, we, {Kind: "task", Task: &tr}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Batch([]journalEntry{we}); err != nil {
		t.Fatal(err)
	}
	if err := j.Batch(nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(log.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("journal lines = %d, want 2 (one batch, one v1 single)", len(lines))
	}
	if !strings.Contains(lines[0], `"kind":"batch"`) || !strings.Contains(lines[0], `"v":2`) {
		t.Errorf("multi-entry record is not a v2 batch line: %s", lines[0])
	}
	if strings.Contains(lines[1], "batch") {
		t.Errorf("single-entry drain should stay a v1 line: %s", lines[1])
	}

	p, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayJournal(strings.NewReader(log.String()), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 4 {
		t.Errorf("replayed entries = %d, want 4 (batch counts per sub-entry)", rep.Entries)
	}
	if st := p.Snapshot(); st.Workers != 3 || st.Tasks != 1 {
		t.Errorf("replayed state = %d workers %d tasks, want 3 and 1", st.Workers, st.Tasks)
	}

	malformed := map[string]string{
		"wrong version": `{"kind":"batch","v":1,"entries":[{"kind":"worker","worker":{"x":1,"y":1,"wait":1,"velocity":1,"max_dist":1,"skills":[0]}}]}`,
		"empty":         `{"kind":"batch","v":2,"entries":[]}`,
		"nested batch":  `{"kind":"batch","v":2,"entries":[{"kind":"batch","v":2}]}`,
		"tick inside":   `{"kind":"batch","v":2,"entries":[{"kind":"tick","tick":1}]}`,
	}
	for name, line := range malformed {
		p, err := NewPlatform(Config{Allocator: core.NewGreedy()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReplayJournal(strings.NewReader(line+"\n"), p); err == nil {
			t.Errorf("replay accepted malformed batch record (%s)", name)
		}
	}
}

// TestIngestConcurrentHammer is the race-detector workout: concurrent
// registrars, a monotonically advancing ticker, lock-free readers and
// mid-run snapshot rotations, all at once. Afterwards: IDs are dense and
// unique, nothing registered was lost, and recovering from the rotated
// snapshot + journal tail reproduces the served state exactly.
func TestIngestConcurrentHammer(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "events.jsonl")
	snapPath := filepath.Join(dir, "events.jsonl.snap")
	j, err := OpenJournalMode(jpath, FsyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	p, err := NewPlatform(Config{
		Allocator:    core.NewGreedy(),
		Journal:      j,
		IngestQueue:  1024,
		IngestBatch:  32,
		SnapshotPath: snapPath,
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		registrars = 6
		perG       = 40
	)
	var wg sync.WaitGroup
	stopReaders := make(chan struct{})

	workerIDs := make([][]model.WorkerID, registrars)
	taskIDs := make([][]model.TaskID, registrars)
	for g := 0; g < registrars; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%3 == 0 {
					id, err := p.AddTask(exTask(g*perG + i))
					if err != nil {
						t.Errorf("task %d/%d: %v", g, i, err)
						return
					}
					taskIDs[g] = append(taskIDs[g], id)
				} else {
					id, err := p.AddWorker(exWorker(g*perG + i))
					if err != nil {
						t.Errorf("worker %d/%d: %v", g, i, err)
						return
					}
					workerIDs[g] = append(workerIDs[g], id)
				}
			}
		}(g)
	}

	// One ticker: strictly increasing logical time, interleaved with ingest.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 15; i++ {
			if _, err := p.Tick(float64(i)); err != nil {
				t.Errorf("tick %d: %v", i, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Snapshot rotations race the group commits.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := p.SaveSnapshot(snapPath); err != nil {
				t.Errorf("snapshot %d: %v", i, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Lock-free readers must never observe torn state.
	for r := 0; r < 2; r++ {
		go func() {
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				st := p.StatsView()
				if st.Workers < 0 {
					t.Error("negative worker count in read view")
				}
				a := p.AssignmentsView()
				_ = a.Size
				in := p.InstanceView()
				if len(in.Workers) != st.Workers && len(in.Workers) < st.Workers-1024 {
					t.Error("instance view wildly behind stats view")
				}
			}
		}()
	}

	wg.Wait()
	close(stopReaders)
	p.Close()

	// Dense unique IDs, nothing lost.
	st := p.Snapshot()
	wantW, wantT := 0, 0
	seenW := make(map[model.WorkerID]bool)
	seenT := make(map[model.TaskID]bool)
	for g := 0; g < registrars; g++ {
		for _, id := range workerIDs[g] {
			if seenW[id] {
				t.Fatalf("duplicate worker ID %d", id)
			}
			seenW[id] = true
			wantW++
		}
		for _, id := range taskIDs[g] {
			if seenT[id] {
				t.Fatalf("duplicate task ID %d", id)
			}
			seenT[id] = true
			wantT++
		}
	}
	if st.Workers != wantW || st.Tasks != wantT {
		t.Fatalf("served %d workers %d tasks, want %d and %d (lost registrations)",
			st.Workers, st.Tasks, wantW, wantT)
	}
	for id := range seenW {
		if int(id) >= wantW {
			t.Errorf("worker ID %d outside dense range 0..%d", id, wantW-1)
		}
	}
	for id := range seenT {
		if int(id) >= wantT {
			t.Errorf("task ID %d outside dense range 0..%d", id, wantT-1)
		}
	}

	// Recover from the rotated snapshot + journal tail: identical state.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(p2, snapPath, jpath); err != nil {
		t.Fatal(err)
	}
	var served, recovered bytes.Buffer
	if err := dataset.WriteCompact(&served, p.InstanceView()); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCompact(&recovered, p2.InstanceView()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served.Bytes(), recovered.Bytes()) {
		t.Error("recovered registries differ from served registries")
	}
	st2 := p2.Snapshot()
	if st2.Workers != st.Workers || st2.Tasks != st.Tasks || st2.Batches != st.Batches ||
		st2.AssignedTasks != st.AssignedTasks || st2.Now != st.Now {
		t.Errorf("recovered stats %+v differ from served %+v", st2, st)
	}
	var aServed, aRecovered bytes.Buffer
	if err := dataset.WriteAssignment(&aServed, p.AssignmentsView()); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteAssignment(&aRecovered, p2.AssignmentsView()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aServed.Bytes(), aRecovered.Bytes()) {
		t.Error("recovered assignments differ from served assignments")
	}
}

// TestIngestShutdownDrains checks the Close contract: every registration
// admitted before Close is committed and answered, even one a leader is
// holding in its formation window; registrations after Close fail with
// ErrPlatformClosed.
func TestIngestShutdownDrains(t *testing.T) {
	var log safeBuffer
	p, err := NewPlatform(Config{
		Allocator: core.NewGreedy(), Journal: NewJournal(&log, nil),
		IngestQueue: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := p.AddWorker(exWorker(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	p.Close() // idempotent
	if _, err := p.AddWorker(exWorker(99)); !errors.Is(err, ErrPlatformClosed) {
		t.Errorf("register after Close: err = %v, want ErrPlatformClosed", err)
	}
	if st := p.Snapshot(); st.Workers != 10 {
		t.Errorf("workers = %d, want 10", st.Workers)
	}
	assertReplayMatchesServed(t, p, []byte(log.String()))

	// Close cuts a leader's formation window short and commits its group.
	p, err = NewPlatform(Config{Allocator: core.NewGreedy(), IngestWait: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.AddWorker(exWorker(0))
		done <- err
	}()
	waitFor(t, func() bool { return p.reg.Counter(obs.MIngestEnqueuedTotal).Value() == 1 })
	start := time.Now()
	p.Close()
	if err := <-done; err != nil {
		t.Errorf("registration admitted before Close: %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("Close waited %v, want the window cut short", d)
	}
	if st := p.Snapshot(); st.Workers != 1 {
		t.Errorf("workers = %d, want 1", st.Workers)
	}
}
