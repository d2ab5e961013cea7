package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dasc/internal/core"
	"dasc/internal/dataset"
	"dasc/internal/model"
	"dasc/internal/obs"
)

// driveExample runs Example 1 through a journaled platform: register
// everyone, tick twice.
func driveExample(t *testing.T, p *Platform) {
	t.Helper()
	ex := model.Example1()
	for _, w := range ex.Workers {
		if _, err := p.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, tk := range ex.Tasks {
		if _, err := p.AddTask(tk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Tick(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Tick(5); err != nil {
		t.Fatal(err)
	}
}

func TestJournalReplayReproducesState(t *testing.T) {
	var log bytes.Buffer
	j := NewJournal(&log, nil)
	p1, err := NewPlatform(Config{Allocator: core.NewGreedy(), Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	driveExample(t, p1)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// 3 workers + 5 tasks + 2 ticks = 10 lines.
	if lines := strings.Count(log.String(), "\n"); lines != 10 {
		t.Fatalf("journal lines = %d, want 10", lines)
	}

	// Rebuild a fresh platform from the journal: identical state.
	p2, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayJournal(bytes.NewReader(log.Bytes()), p2); err != nil {
		t.Fatal(err)
	}
	s1, s2 := p1.Snapshot(), p2.Snapshot()
	if s1.Workers != s2.Workers || s1.Tasks != s2.Tasks ||
		s1.AssignedTasks != s2.AssignedTasks || s1.Batches != s2.Batches || s1.Now != s2.Now {
		t.Fatalf("replayed state differs: %+v vs %+v", s1, s2)
	}
	if a1, a2 := p1.AssignmentsView().String(), p2.AssignmentsView().String(); a1 != a2 {
		t.Fatalf("replayed assignments differ:\n%s\n%s", a1, a2)
	}
}

func TestJournalReplayIsNotReJournaled(t *testing.T) {
	var src bytes.Buffer
	j1 := NewJournal(&src, nil)
	p1, _ := NewPlatform(Config{Allocator: core.NewGreedy(), Journal: j1})
	driveExample(t, p1)

	// Replaying into a platform that itself journals must not duplicate
	// entries into its own journal.
	var dst bytes.Buffer
	j2 := NewJournal(&dst, nil)
	p2, _ := NewPlatform(Config{Allocator: core.NewGreedy(), Journal: j2})
	if _, err := ReplayJournal(bytes.NewReader(src.Bytes()), p2); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 0 {
		t.Errorf("replay re-journaled %d bytes", dst.Len())
	}
	// New events after replay journal normally again.
	if _, err := p2.Tick(10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dst.String(), `"kind":"tick"`) {
		t.Errorf("post-replay tick not journaled: %q", dst.String())
	}
}

func TestJournalFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "platform.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := NewPlatform(Config{Allocator: core.NewGreedy(), Journal: j})
	driveExample(t, p1)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p2, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
	if _, err := ReplayJournal(f, p2); err != nil {
		t.Fatal(err)
	}
	if p2.Snapshot().AssignedTasks != p1.Snapshot().AssignedTasks {
		t.Error("file round trip lost assignments")
	}
}

func TestReplayRejectsCorruptJournals(t *testing.T) {
	cases := map[string]string{
		"garbage":        "not json\n",
		"unknown kind":   `{"kind":"banana"}` + "\n",
		"tick no time":   `{"kind":"tick"}` + "\n",
		"worker no body": `{"kind":"worker"}` + "\n",
		"task no body":   `{"kind":"task"}` + "\n",
		"invalid worker": `{"kind":"worker","worker":{"skills":[]}}` + "\n",
		// Records that parse but do not match the format are corruption:
		// replay must not drop what it does not recognise.
		"unknown payload key":  `{"kind":"worker","worker":{"x":1,"y":1,"wait":1,"velocity":1,"max_dist":1,"skills":[0],"bogus":1}}` + "\n",
		"unknown entry key":    `{"kind":"tick","tick":1,"bogus":1}` + "\n",
		"worker with id":       `{"kind":"worker","worker":{"id":0,"x":1,"y":1,"wait":1,"velocity":1,"max_dist":1,"skills":[0]}}` + "\n",
		"worker with tick":     `{"kind":"worker","worker":{"x":1,"y":1,"wait":1,"velocity":1,"max_dist":1,"skills":[0]},"tick":3}` + "\n",
		"worker with batch":    `{"kind":"worker","worker":{"x":1,"y":1,"wait":1,"velocity":1,"max_dist":1,"skills":[0]},"v":2,"entries":[{"kind":"tick","tick":1}]}` + "\n",
		"tick with worker":     `{"kind":"tick","tick":1,"worker":{"x":1,"y":1,"wait":1,"velocity":1,"max_dist":1,"skills":[0]}}` + "\n",
		"batch with task":      `{"kind":"batch","v":2,"entries":[{"kind":"task","task":{"wait":1}}],"task":{"wait":1}}` + "\n",
		"sub-entry with v":     `{"kind":"batch","v":2,"entries":[{"kind":"task","task":{"wait":1},"v":2}]}` + "\n",
		"data after the entry": `{"kind":"tick","tick":1} {}` + "\n",
		// An unknown key is corruption on an unterminated last line too: a
		// torn write leaves a cut-short line, never a complete one.
		"unknown key, last line": `{"kind":"tick","tick":1,"bogus":1}`,
	}
	for name, body := range cases {
		p, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
		if _, err := ReplayJournal(strings.NewReader(body), p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Empty lines are tolerated.
	p, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
	if _, err := ReplayJournal(strings.NewReader("\n\n"), p); err != nil {
		t.Errorf("blank lines rejected: %v", err)
	}
}

func TestJournalWriteFailureSurfaces(t *testing.T) {
	j := NewJournal(failingWriter{}, nil)
	p, _ := NewPlatform(Config{Allocator: core.NewGreedy(), Journal: j})
	_, err := p.AddWorker(model.Worker{Wait: 1, Velocity: 1, MaxDist: 1, Skills: model.NewSkillSet(0)})
	if err == nil {
		t.Fatal("journal write failure swallowed")
	}
	if !errors.Is(err, errDiskFull) {
		t.Errorf("err = %v", err)
	}
}

type failingWriter struct{}

var errDiskFull = errors.New("disk full")

func (failingWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// journalBytes drives Example 1 through a journaled platform and returns the
// journal contents plus the original platform.
func journalBytes(t *testing.T) ([]byte, *Platform) {
	t.Helper()
	var log bytes.Buffer
	j := NewJournal(&log, nil)
	p, err := NewPlatform(Config{Allocator: core.NewGreedy(), Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	driveExample(t, p)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return log.Bytes(), p
}

func TestReplayTornTailToleratedAsCleanEOF(t *testing.T) {
	full, _ := journalBytes(t)
	// Cut mid-way through the final line: a crash left a partial append.
	last := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1
	cut := last + (len(full)-last)/2
	torn := full[:cut]

	p, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
	rep, err := ReplayJournal(bytes.NewReader(torn), p)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if !rep.TornTail {
		t.Error("torn tail not reported")
	}
	if rep.TornTailBytes != cut-last {
		t.Errorf("TornTailBytes = %d, want %d", rep.TornTailBytes, cut-last)
	}

	// The applied state must equal a replay of the complete prefix.
	want, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
	if _, err := ReplayJournal(bytes.NewReader(full[:last]), want); err != nil {
		t.Fatal(err)
	}
	if g, w := fmt.Sprint(p.Snapshot()), fmt.Sprint(want.Snapshot()); g != w {
		t.Errorf("torn-tail state %s != prefix state %s", g, w)
	}
	if rep.Entries == 0 {
		t.Error("no entries applied from the complete prefix")
	}
	// Recovery outcomes land in the platform registry for /v1/metrics.
	if got := p.Metrics().Counter(obs.MRecoveryTornLinesTotal).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MRecoveryTornLinesTotal, got)
	}
	if got := p.Metrics().Counter(obs.MRecoveryEntriesTotal).Value(); got != int64(rep.Entries) {
		t.Errorf("%s = %d, want %d", obs.MRecoveryEntriesTotal, got, rep.Entries)
	}
	if got := p.Metrics().Counter(obs.MRecoveryTicksTotal).Value(); got != int64(rep.Ticks) {
		t.Errorf("%s = %d, want %d", obs.MRecoveryTicksTotal, got, rep.Ticks)
	}
}

func TestReplayUnterminatedCompleteFinalLineApplies(t *testing.T) {
	full, orig := journalBytes(t)
	// Strip only the trailing newline: the final entry is byte-complete.
	p, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
	rep, err := ReplayJournal(bytes.NewReader(full[:len(full)-1]), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornTail {
		t.Error("complete final line misreported as torn")
	}
	if g, w := fmt.Sprint(p.Snapshot()), fmt.Sprint(orig.Snapshot()); g != w {
		t.Errorf("state %s != original %s", g, w)
	}
}

func TestReplayInteriorCorruptionFailsWithLineNumber(t *testing.T) {
	full, _ := journalBytes(t)
	lines := bytes.SplitAfter(full, []byte("\n"))
	// Corrupt line 3 (interior, newline-terminated): must fail loudly even
	// though later lines are fine.
	lines[2] = []byte("{\"kind\":\"worker\",\"wor\n")
	corrupt := bytes.Join(lines, nil)
	p, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
	_, err := ReplayJournal(bytes.NewReader(corrupt), p)
	if err == nil {
		t.Fatal("interior corruption accepted")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error lacks line number: %v", err)
	}
}

func TestReplayHugeLineHasNoSizeCap(t *testing.T) {
	// A worker holding ~700k skills journals as a single line well past the
	// old 4 MiB scanner cap; replay must still read it.
	skills := make([]model.Skill, 700_000)
	for i := range skills {
		skills[i] = model.Skill(i)
	}
	var log bytes.Buffer
	j := NewJournal(&log, nil)
	p1, _ := NewPlatform(Config{Allocator: core.NewGreedy(), Journal: j})
	if _, err := p1.AddWorker(model.Worker{Wait: 1, Velocity: 1, MaxDist: 1, Skills: model.NewSkillSet(skills...)}); err != nil {
		t.Fatal(err)
	}
	if log.Len() <= 4*1024*1024 {
		t.Fatalf("journal line only %d bytes; test needs > 4 MiB", log.Len())
	}
	p2, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
	if _, err := ReplayJournal(bytes.NewReader(log.Bytes()), p2); err != nil {
		t.Fatalf("huge line rejected: %v", err)
	}
	if p2.Snapshot().Workers != 1 {
		t.Error("huge worker lost")
	}
}

func TestParseFsyncMode(t *testing.T) {
	for s, want := range map[string]FsyncMode{
		"always": FsyncAlways, "interval": FsyncInterval, "never": FsyncNever,
	} {
		got, err := ParseFsyncMode(s)
		if err != nil || got != want {
			t.Errorf("ParseFsyncMode(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("FsyncMode(%v).String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := ParseFsyncMode("sometimes"); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestFsyncAlwaysCountsSyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "platform.jsonl")
	j, err := OpenJournalMode(path, FsyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewPlatform(Config{Allocator: core.NewGreedy(), Journal: j})
	driveExample(t, p)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	appends := p.Metrics().Counter(obs.MJournalAppendsTotal).Value()
	fsyncs := p.Metrics().Counter(obs.MJournalFsyncsTotal).Value()
	if appends != 10 {
		t.Errorf("appends = %d, want 10", appends)
	}
	if fsyncs < appends {
		t.Errorf("fsync=always synced %d times for %d appends", fsyncs, appends)
	}
	if bytes := p.Metrics().Counter(obs.MJournalBytesTotal).Value(); bytes == 0 {
		t.Error("journal bytes not counted")
	}
}

func TestJournalRewindTruncatesAndStaysAppendable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "platform.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	p, _ := NewPlatform(Config{Allocator: core.NewGreedy(), Journal: j})
	driveExample(t, p)
	if err := j.Rewind(); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(path); fi.Size() != 0 {
		t.Fatalf("rewound journal is %d bytes", fi.Size())
	}
	// Post-rewind events land at the new EOF and replay cleanly.
	if _, err := p.Tick(10); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "\n"); got != 1 {
		t.Fatalf("post-rewind journal has %d lines, want 1", got)
	}
	if !strings.Contains(string(data), `"kind":"tick"`) {
		t.Errorf("post-rewind journal = %q", data)
	}
	if err := j.Rewind(); err != nil {
		t.Fatal(err)
	}
	if NewJournal(&bytes.Buffer{}, nil).Rewind() == nil {
		t.Error("writer-backed journal rewound")
	}
}

// FuzzReplayJournal feeds arbitrary bytes to ReplayJournal on a fresh
// platform. Replay must never panic, whatever it rejects; and a replay that
// succeeds must be deterministic: a second fresh platform replaying the
// same bytes serves the same registries, byte for byte through the dataset
// codec. Seeds under testdata/fuzz cover v1 worker, task and tick lines, a
// v2 batch record whose task depends on a task staged earlier in the same
// record, a torn tail, an interior bad line, an out-of-range skill, and
// records that parse but do not match the format (unknown keys, a payload
// other than the kind's, data after the entry).
func FuzzReplayJournal(f *testing.F) {
	f.Add([]byte(`{"kind":"tick","tick":0}` + "\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		replay := func() (*Platform, error) {
			p, err := NewPlatform(Config{Allocator: core.NewGreedy()})
			if err != nil {
				t.Fatal(err)
			}
			_, err = ReplayJournal(bytes.NewReader(b), p)
			return p, err
		}
		p1, err := replay()
		if err != nil {
			return // rejection is fine; panics are not
		}
		p2, err := replay()
		if err != nil {
			t.Fatalf("second replay of accepted bytes failed: %v", err)
		}
		var first, second bytes.Buffer
		if err := dataset.WriteCompact(&first, p1.InstanceView()); err != nil {
			t.Fatalf("replayed state does not encode: %v", err)
		}
		if err := dataset.WriteCompact(&second, p2.InstanceView()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("replays diverge:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}

// goldenJournal is a journal written by the platform before the journal
// and the instance file shared one record type: a v1 worker line, a v1 task
// line without deps or weight, a v1 task line with both, a v2 batch record
// (a worker, a task depending on an earlier one and a task depending on one
// staged in the same record) and a tick line.
const goldenJournal = "testdata/golden.jsonl"

// writeGoldenJournal drives a journaled platform through every line shape
// in goldenJournal and returns the platform and its journal bytes.
func writeGoldenJournal(t *testing.T) (*Platform, []byte) {
	t.Helper()
	var log bytes.Buffer
	j := NewJournal(&log, nil)
	p, err := NewPlatform(Config{Allocator: core.NewGreedy(), Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddWorker(model.Worker{Loc: pt(1.5, -2), Start: 0.25, Wait: 100, Velocity: 1.25, MaxDist: 50, Skills: model.NewSkillSet(3, 0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddTask(model.Task{Loc: pt(2, 1e-3), Wait: 40, Requires: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddTask(model.Task{Loc: pt(3, 4), Start: 1, Wait: 50, Requires: 3, Deps: []model.TaskID{0}, Weight: 2.5}); err != nil {
		t.Fatal(err)
	}
	group := []*ingestReq{
		{kind: ingestWorker, worker: model.Worker{Loc: pt(0, 0), Wait: 1e6, Velocity: 2, MaxDist: 1000, Skills: model.NewSkillSet(1)}},
		{kind: ingestTask, task: model.Task{Loc: pt(-1, 2), Wait: 30, Requires: 1, Deps: []model.TaskID{1}}},
		{kind: ingestTask, task: model.Task{Loc: pt(5, 5), Wait: 60, Requires: 0, Deps: []model.TaskID{2}, Weight: 0.5}},
	}
	p.commit(group)
	for _, r := range group {
		if r.err != nil {
			t.Fatal(r.err)
		}
	}
	if _, err := p.Tick(1); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return p, log.Bytes()
}

// servedInstance returns the bytes GET /v1/instance serves from p.
func servedInstance(t *testing.T, p *Platform) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	Handler(p).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/instance", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/instance: status %d", rec.Code)
	}
	return rec.Body.Bytes()
}

// TestJournalWriterMatchesGolden pins the journal's bytes: the writer
// reproduces the committed journal byte for byte, and replaying it serves
// the same GET /v1/instance bytes as the platform that wrote it.
func TestJournalWriterMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(goldenJournal)
	if err != nil {
		t.Fatal(err)
	}
	p, got := writeGoldenJournal(t)
	if !bytes.Equal(got, want) {
		t.Fatalf("journal differs from %s:\n got %s\nwant %s", goldenJournal, got, want)
	}
	replayed, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayJournal(bytes.NewReader(want), replayed); err != nil {
		t.Fatal(err)
	}
	if a, b := servedInstance(t, p), servedInstance(t, replayed); !bytes.Equal(a, b) {
		t.Fatalf("replayed platform serves a different instance:\n got %s\nwant %s", b, a)
	}
}
