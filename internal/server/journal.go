package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"time"

	"dasc/internal/dataset"
	"dasc/internal/obs"
)

// FsyncMode is the journal's durability policy: how often appended events
// are forced to stable storage (fsync) rather than just flushed to the OS
// page cache.
type FsyncMode int

const (
	// FsyncNever flushes to the OS but never fsyncs; a machine crash can
	// lose every event the kernel had not yet written back. Process crashes
	// lose nothing (the flush per append still reaches the kernel).
	FsyncNever FsyncMode = iota
	// FsyncInterval fsyncs at most once per configured interval, amortising
	// the sync cost over many appends; a machine crash loses at most one
	// interval of events.
	FsyncInterval
	// FsyncAlways fsyncs after every append; nothing acknowledged is ever
	// lost, at one disk sync per event.
	FsyncAlways
)

// ParseFsyncMode parses "always", "interval" or "never".
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return FsyncNever, fmt.Errorf("server: unknown fsync mode %q (want always, interval or never)", s)
}

// String returns the flag spelling of the mode.
func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	default:
		return "never"
	}
}

// DefaultFsyncInterval is the interval-mode sync cadence when none is given.
const DefaultFsyncInterval = time.Second

// ErrJournal classifies failures of the durability layer — a journal append,
// flush or fsync going wrong — as distinct from request-validation failures.
// Mutating platform operations wrap journal errors so errors.Is(err,
// ErrJournal) holds; the HTTP layer maps them to 503 + Retry-After (the
// server's disk is the problem, not the client's request).
var ErrJournal = errors.New("journal failure")

// journalError wraps an underlying journal error so it classifies as
// ErrJournal while keeping the original error chain and the stable
// "server: journal:" message prefix.
type journalError struct{ err error }

func (e *journalError) Error() string        { return "server: journal: " + e.err.Error() }
func (e *journalError) Unwrap() error        { return e.err }
func (e *journalError) Is(target error) bool { return target == ErrJournal }
func journalFailure(err error) error         { return &journalError{err: err} }

// Journal is an append-only JSONL event log for the platform: every worker
// registration, task registration and batch tick is recorded as one line, so
// a crashed or restarted server can rebuild its exact state with Replay.
// Entries are written through a buffered writer and flushed per event; the
// configured FsyncMode decides when flushes are additionally forced to disk.
// The file format is stable and human-greppable.
type Journal struct {
	mu       sync.Mutex
	w        *bufio.Writer
	c        io.Closer
	f        *os.File // nil when not file-backed (fsync and Rewind unavailable)
	mode     FsyncMode
	interval time.Duration
	lastSync time.Time
	reg      *obs.Registry // nil-safe metric sink (dasc_journal_*)
	cAppends *obs.Counter  // resolved once in SetMetrics; nil = no-op
	cBytes   *obs.Counter
	cFsyncs  *obs.Counter
	log      *slog.Logger // nil = silent (SetLogger)
	err      error
}

// journalBatchVersion identifies the multi-entry group-commit record format
// ("batch" lines). v1 lines are the single-entry worker/task/tick records;
// replay accepts both side by side.
const journalBatchVersion = 2

// journalEntry is one logged event. Exactly the payload its Kind names is
// set: Worker, Task, Tick, or V and Entries.
type journalEntry struct {
	// Kind is "worker", "task", "tick" — or "batch" for the v2 multi-entry
	// group-commit record (V = journalBatchVersion, Entries = the
	// registrations committed together under a single fsync).
	Kind   string                `json:"kind"`
	Worker *dataset.WorkerRecord `json:"worker,omitempty"`
	Task   *dataset.TaskRecord   `json:"task,omitempty"`
	Tick   *float64              `json:"tick,omitempty"`

	V       int            `json:"v,omitempty"`
	Entries []journalEntry `json:"entries,omitempty"`
}

// payloads reports which payloads e carries: a worker, a task, a tick
// time, and a batch's version or entries.
func (e *journalEntry) payloads() [4]bool {
	return [4]bool{e.Worker != nil, e.Task != nil, e.Tick != nil, e.V != 0 || e.Entries != nil}
}

// journalPayloads is the one payload each kind carries, in payloads' order.
var journalPayloads = map[string][4]bool{
	"worker": {true, false, false, false},
	"task":   {false, true, false, false},
	"tick":   {false, false, true, false},
	"batch":  {false, false, false, true},
}

// NewJournal writes events to w; close (may be nil) is closed by Close.
// Writer-backed journals have no durable file, so the fsync policy is
// FsyncNever and Rewind is unavailable.
func NewJournal(w io.Writer, close io.Closer) *Journal {
	return &Journal{w: bufio.NewWriter(w), c: close}
}

// OpenJournal appends to (creating if needed) the JSONL file at path with
// the FsyncNever policy. Use OpenJournalMode to choose a durability policy.
func OpenJournal(path string) (*Journal, error) {
	return OpenJournalMode(path, FsyncNever, 0)
}

// OpenJournalMode appends to (creating if needed) the JSONL file at path
// under the given durability policy. interval only matters for
// FsyncInterval; zero means DefaultFsyncInterval.
func OpenJournalMode(path string, mode FsyncMode, interval time.Duration) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if interval <= 0 {
		interval = DefaultFsyncInterval
	}
	j := NewJournal(f, f)
	j.f = f
	j.mode = mode
	j.interval = interval
	return j, nil
}

// SetMetrics attaches a registry for the dasc_journal_* counters. Nil-safe
// on both sides; the platform wires its own registry here so journal
// durability shows up on GET /v1/metrics.
func (j *Journal) SetMetrics(reg *obs.Registry) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.reg = reg
	// Resolve the hot-path counters once: Registry.Counter is a mutex + map
	// lookup, which the per-append/per-fsync path should not repay every
	// event. Nil-safe — a nil registry hands back nil (no-op) counters.
	j.cAppends = reg.Counter(obs.MJournalAppendsTotal)
	j.cBytes = reg.Counter(obs.MJournalBytesTotal)
	j.cFsyncs = reg.Counter(obs.MJournalFsyncsTotal)
	j.mu.Unlock()
}

// SetLogger attaches a structured logger for durability failures (append,
// flush, fsync, rewind). Nil-safe on both sides; the platform wires its own
// logger here. A journal failure is sticky (every later append fails fast
// with the first error), so each failure logs exactly once.
func (j *Journal) SetLogger(log *slog.Logger) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.log = log
	j.mu.Unlock()
}

// failLocked records the journal's first (sticky) failure and logs it.
//
// requires: j.mu
func (j *Journal) failLocked(op string, err error) error {
	j.err = err
	if j.log != nil {
		j.log.Error("journal failure", "op", op, "error", err.Error())
	}
	return err
}

func (j *Journal) append(e journalEntry) error { return j.appendN(e, 1) }

// appendN writes one record carrying events logical events (1 for v1 lines,
// len(Entries) for a v2 batch record) with a single flush and at most one
// fsync — the group-commit amortisation.
func (j *Journal) appendN(e journalEntry, events int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	data, err := json.Marshal(e)
	if err != nil {
		return j.failLocked("marshal", err)
	}
	n, err := j.w.Write(append(data, '\n'))
	if err != nil {
		return j.failLocked("append", err)
	}
	if err := j.w.Flush(); err != nil {
		return j.failLocked("flush", err)
	}
	j.cAppends.Add(int64(events))
	j.cBytes.Add(int64(n))
	if err := j.maybeSyncLocked(); err != nil {
		return j.failLocked("fsync", err)
	}
	return nil
}

// maybeSyncLocked applies the fsync policy after a flushed append.
//
// requires: j.mu
func (j *Journal) maybeSyncLocked() error {
	if j.f == nil {
		return nil
	}
	switch j.mode {
	case FsyncAlways:
		return j.syncLocked()
	case FsyncInterval:
		if time.Since(j.lastSync) >= j.interval {
			return j.syncLocked()
		}
	}
	return nil
}

// requires: j.mu
func (j *Journal) syncLocked() error {
	if j.f == nil {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.lastSync = time.Now()
	j.cFsyncs.Inc()
	return nil
}

// Sync flushes buffered events and, for file-backed journals, forces them to
// stable storage regardless of the fsync policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if err := j.w.Flush(); err != nil {
		return j.failLocked("flush", err)
	}
	if err := j.syncLocked(); err != nil {
		return j.failLocked("fsync", err)
	}
	return nil
}

// Rewind truncates a file-backed journal to zero length after a snapshot has
// captured everything it contained, so recovery is snapshot-load plus a
// short tail replay instead of a full-history re-simulation. The journal
// stays open and appendable; only file-backed journals can rewind.
func (j *Journal) Rewind() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.f == nil {
		return errors.New("server: journal is not file-backed; cannot rewind")
	}
	if err := j.w.Flush(); err != nil {
		return j.failLocked("flush", err)
	}
	if err := j.f.Truncate(0); err != nil {
		return j.failLocked("rewind", err)
	}
	// O_APPEND writes ignore the offset, but keep it coherent for clarity.
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return j.failLocked("rewind", err)
	}
	if err := j.syncLocked(); err != nil {
		return j.failLocked("fsync", err)
	}
	return nil
}

// Batch logs a group of registration events as one journal record with a
// single flush and at most one fsync (group commit). A single entry stays a
// v1 line (so the common case remains greppable one-event-per-line); two or
// more become a v2 "batch" record that Replay applies in order.
func (j *Journal) Batch(entries []journalEntry) error {
	switch len(entries) {
	case 0:
		return nil
	case 1:
		return j.append(entries[0])
	}
	return j.appendN(journalEntry{Kind: "batch", V: journalBatchVersion, Entries: entries}, len(entries))
}

// TickAt logs a batch tick at the given logical time.
func (j *Journal) TickAt(now float64) error {
	return j.append(journalEntry{Kind: "tick", Tick: &now})
}

// Close flushes, syncs (per Sync) and closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if ferr := j.w.Flush(); ferr != nil && j.err == nil {
		j.err = ferr
	}
	if j.f != nil && j.err == nil {
		if serr := j.syncLocked(); serr != nil {
			j.err = serr
		}
	}
	if j.c != nil {
		if cerr := j.c.Close(); cerr != nil && j.err == nil {
			j.err = cerr
		}
	}
	return j.err
}

// ReplayReport describes what a journal replay applied.
type ReplayReport struct {
	// Entries is the number of journal entries applied (registrations and
	// ticks); Ticks is how many of those were batch ticks re-run.
	Entries int
	Ticks   int
	// Bytes is how many bytes replay read, the torn tail included.
	Bytes int64
	// TornTail reports that the final line was an unterminated partial
	// write (a crash mid-append); TornTailBytes is its length. The torn
	// bytes were NOT applied — the caller should truncate the file to
	// Bytes-TornTailBytes before appending new events (Recover does).
	TornTail      bool
	TornTailBytes int
}

// ReplayJournal feeds a journal stream back into a platform, reproducing its
// state: registrations re-register and ticks re-run. The platform must use
// the same allocator configuration as the original for identical outcomes
// (allocators are deterministic for a fixed seed).
//
// A torn tail — a final line with no trailing newline that is cut short or
// not JSON at all, the signature of a crash mid-append — is treated as a
// clean EOF and reported, not returned as an error: the journal's complete
// prefix fully determines a consistent state. Everything else fails loudly
// with its line number: a malformed interior line, and on any line an
// unknown key, a value of the wrong type, data after the entry, or a
// payload other than the one the entry's kind names. Lines are read
// through bufio.Reader, so a single huge entry (e.g. a task with an
// enormous dependency list journaled before body limits) has no fixed size
// cap.
func ReplayJournal(r io.Reader, p *Platform) (ReplayReport, error) {
	var rep ReplayReport
	p.mu.Lock()
	p.replaying = true
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.replaying = false
		p.mu.Unlock()
	}()
	br := bufio.NewReaderSize(r, 64*1024)
	line := 0
	for {
		data, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return rep, rerr
		}
		rep.Bytes += int64(len(data))
		atEOF := rerr == io.EOF
		complete := len(data) > 0 && data[len(data)-1] == '\n'
		torn := atEOF && !complete && len(data) > 0
		trimmed := bytes.TrimSpace(data)
		if len(trimmed) > 0 {
			line++
			e, err := decodeEntry(trimmed)
			if err != nil {
				var syntax *json.SyntaxError
				if torn && (errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &syntax)) {
					// Torn tail: a crash cut the final append short. The
					// complete prefix fully determines a consistent state;
					// drop the fragment and report it for truncation.
					rep.TornTail = true
					rep.TornTailBytes = len(data)
					recordRecovery(p, rep)
					return rep, nil
				}
				return rep, fmt.Errorf("server: journal line %d: %w", line, err)
			}
			// A torn write can at worst leave a byte-complete entry missing
			// only its newline, never valid JSON with different semantics —
			// so apply errors are real corruption even on the last line.
			applied, ticks, err := applyEntry(p, &e, line)
			if err != nil {
				return rep, err
			}
			rep.Entries += applied
			rep.Ticks += ticks
		} else if torn {
			// Whitespace-only unterminated tail: also torn, also dropped.
			rep.TornTail = true
			rep.TornTailBytes = len(data)
		}
		if atEOF {
			recordRecovery(p, rep)
			return rep, nil
		}
	}
}

// decodeEntry decodes one journal line, which holds one entry and nothing
// else, with unknown keys rejected.
func decodeEntry(b []byte) (journalEntry, error) {
	var e journalEntry
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return e, err
	}
	if dec.InputOffset() != int64(len(b)) {
		return e, errors.New("data after the entry")
	}
	return e, nil
}

// applyEntry applies one decoded journal entry — descending into v2 batch
// records — and returns how many logical events (and how many ticks) it
// applied; errors carry the line number.
func applyEntry(p *Platform, e *journalEntry, line int) (entries, ticks int, err error) {
	fail := func(err error) (int, int, error) {
		return 0, 0, fmt.Errorf("server: journal line %d: %w", line, err)
	}
	// A record that parses but carries another kind's payload is
	// corruption, not something to drop.
	want, known := journalPayloads[e.Kind]
	if !known {
		return fail(fmt.Errorf("unknown kind %q", e.Kind))
	}
	if e.payloads() != want {
		return fail(fmt.Errorf("%s entry without exactly a %s payload", e.Kind, e.Kind))
	}
	switch e.Kind {
	case "worker":
		w, err := e.Worker.Worker()
		if err != nil {
			return fail(fmt.Errorf("worker: skills: %w", err))
		}
		if err := p.replayRegistration(&ingestReq{kind: ingestWorker, worker: w}); err != nil {
			return fail(err)
		}
		return 1, 0, nil
	case "task":
		if err := p.replayRegistration(&ingestReq{kind: ingestTask, task: e.Task.Task()}); err != nil {
			return fail(err)
		}
		return 1, 0, nil
	case "tick":
		if _, err := p.Tick(*e.Tick); err != nil {
			return fail(err)
		}
		return 1, 1, nil
	}
	// v2 group-commit record: registrations committed together under one
	// fsync, applied in order. Ticks never group (they are journaled by
	// Tick itself), and batches never nest, so both are corruption here.
	if e.V != journalBatchVersion {
		return fail(fmt.Errorf("unsupported batch record version %d (want %d)", e.V, journalBatchVersion))
	}
	if len(e.Entries) == 0 {
		return fail(errors.New("empty batch record"))
	}
	for i := range e.Entries {
		sub := &e.Entries[i]
		if sub.Kind != "worker" && sub.Kind != "task" {
			return entries, 0, fmt.Errorf("server: journal line %d: batch record holds %q entry", line, sub.Kind)
		}
		n, _, err := applyEntry(p, sub, line)
		entries += n
		if err != nil {
			return entries, 0, err
		}
	}
	return entries, 0, nil
}

// replayRegistration applies one journaled registration through the same
// commit as a live one, as a group of its own: no pending list, no
// formation window, no drain trace and no dasc_ingest_* counters, and no
// journal write (the platform is replaying).
func (p *Platform) replayRegistration(r *ingestReq) error {
	if err := r.validate(); err != nil {
		return err
	}
	p.commit([]*ingestReq{r})
	return r.err
}

// recordRecovery folds a replay's outcome into the platform's registry.
func recordRecovery(p *Platform, rep ReplayReport) {
	reg := p.Metrics()
	reg.Counter(obs.MRecoveryEntriesTotal).Add(int64(rep.Entries))
	reg.Counter(obs.MRecoveryTicksTotal).Add(int64(rep.Ticks))
	if rep.TornTail {
		reg.Counter(obs.MRecoveryTornLinesTotal).Inc()
		reg.Counter(obs.MRecoveryTornBytesTotal).Add(int64(rep.TornTailBytes))
	}
}
