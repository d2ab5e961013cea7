package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dasc/internal/core"
	"dasc/internal/dataset"
	"dasc/internal/model"
	"dasc/internal/obs"
)

// SnapshotVersion identifies the on-disk snapshot schema; bump on breaking
// changes.
const SnapshotVersion = 1

// snapshotFile is the JSON shape of a platform state snapshot: the full
// registries as a dataset-format instance, plus everything the instance does
// not carry — the logical clock, dispatch state per worker, and the
// assignment/botched/finish bookkeeping. Restoring it and replaying the
// post-rotation journal tail reproduces the pre-crash platform exactly.
type snapshotFile struct {
	Version  int                   `json:"version"`
	Now      float64               `json:"now"`
	Batches  int                   `json:"batches"`
	Wasted   int                   `json:"wasted"`
	Rogue    int                   `json:"rogue"`
	Instance json.RawMessage       `json:"instance"`
	Assigned []snapshotAssigned    `json:"assigned"`
	Botched  []model.TaskID        `json:"botched,omitempty"`
	Workers  []snapshotWorkerState `json:"worker_state"`
}

type snapshotAssigned struct {
	Task     model.TaskID   `json:"task"`
	Worker   model.WorkerID `json:"worker"`
	FinishAt float64        `json:"finish_at"`
}

type snapshotWorkerState struct {
	X         float64 `json:"x"`
	Y         float64 `json:"y"`
	BusyUntil float64 `json:"busy_until"`
	DistUsed  float64 `json:"dist_used"`
	Done      int     `json:"done"`
}

// WriteSnapshot serialises the platform's full state to w.
func (p *Platform) WriteSnapshot(w io.Writer) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writeSnapshotLocked(w)
}

// requires: p.mu
func (p *Platform) writeSnapshotLocked(w io.Writer) error {
	var inst bytes.Buffer
	if err := dataset.WriteCompact(&inst, p.instanceLocked()); err != nil {
		return fmt.Errorf("server: snapshot instance: %w", err)
	}
	sf := snapshotFile{
		Version:  SnapshotVersion,
		Now:      p.now,
		Batches:  p.batches,
		Wasted:   p.wasted,
		Rogue:    p.rogue,
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
	return json.NewEncoder(w).Encode(&sf)
}

// ReadSnapshot restores a snapshot into an empty platform (one with no
// registrations and no ticks run). The restored registries are NOT
// re-journaled: the snapshot replaces the journal prefix it rotated away.
func (p *Platform) ReadSnapshot(r io.Reader) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.workers) > 0 || len(p.tasks) > 0 || p.batches > 0 {
		return fmt.Errorf("server: snapshot restore into non-empty platform (%d workers, %d tasks, %d batches)",
			len(p.workers), len(p.tasks), p.batches)
	}
	var sf snapshotFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sf); err != nil {
		return fmt.Errorf("server: snapshot decode: %w", err)
	}
	if sf.Version != SnapshotVersion {
		return fmt.Errorf("server: unsupported snapshot version %d (want %d)", sf.Version, SnapshotVersion)
	}
	in, err := dataset.Read(bytes.NewReader(sf.Instance))
	if err != nil {
		return fmt.Errorf("server: snapshot instance: %w", err)
	}
	if len(sf.Workers) != len(in.Workers) {
		return fmt.Errorf("server: snapshot has %d worker states for %d workers",
			len(sf.Workers), len(in.Workers))
	}
	workers := make([]core.WorkerState, len(sf.Workers))
	for i, ws := range sf.Workers {
		workers[i] = core.WorkerState{
			Loc:       pt(ws.X, ws.Y),
			BusyUntil: ws.BusyUntil, DistUsed: ws.DistUsed, Done: ws.Done,
		}
	}
	nTasks := len(in.Tasks)
	tasks := make([]core.TaskBook, nTasks)
	assignLog := make([]model.Pair, 0, len(sf.Assigned))
	for _, a := range sf.Assigned {
		if a.Task < 0 || int(a.Task) >= nTasks || a.Worker < 0 || int(a.Worker) >= len(in.Workers) {
			return fmt.Errorf("server: snapshot assignment (w%d, t%d) out of range", a.Worker, a.Task)
		}
		if tasks[a.Task].Assigned {
			return fmt.Errorf("server: snapshot assigns task t%d twice", a.Task)
		}
		tasks[a.Task] = core.TaskBook{Assigned: true, Worker: a.Worker, FinishAt: a.FinishAt}
		assignLog = append(assignLog, model.Pair{Worker: a.Worker, Task: a.Task})
	}
	for _, tid := range sf.Botched {
		if tid < 0 || int(tid) >= nTasks {
			return fmt.Errorf("server: snapshot botched task t%d out of range", tid)
		}
		tasks[tid].Botched = true
	}
	p.workers = in.Workers
	p.tasks = in.Tasks
	p.kernel.Restore(workers, tasks)
	p.assignLog = assignLog
	p.now = sf.Now
	p.batches = sf.Batches
	p.wasted = sf.Wasted
	p.rogue = sf.Rogue
	// The kernel's population is still empty (only ticks admit, and none
	// has run), so the first tick admits and filters the whole restored
	// history once.
	p.publishViewLocked()
	return nil
}

// SnapshotInfo describes a written snapshot.
type SnapshotInfo struct {
	Path     string        `json:"path"`
	Bytes    int64         `json:"bytes"`
	Duration time.Duration `json:"duration_ns"`
	// Rotated reports that the platform's journal was rewound to zero
	// length after the snapshot landed.
	Rotated bool `json:"rotated"`
}

// SaveSnapshot atomically writes the platform state to path (temp file in
// the same directory, fsync, rename) and then rotates the platform's
// journal, so recovery becomes snapshot-load plus short-tail replay. The
// platform lock is held throughout: the snapshot and the rotation are one
// atomic cut of the event stream.
func (p *Platform) SaveSnapshot(path string) (SnapshotInfo, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.saveSnapshotLocked(path)
}

// requires: p.mu
func (p *Platform) saveSnapshotLocked(path string) (info SnapshotInfo, err error) {
	start := time.Now()
	defer func() {
		if err != nil {
			p.reg.Counter(obs.MSnapshotFailuresTotal).Inc()
		}
	}()
	var buf bytes.Buffer
	if err = p.writeSnapshotLocked(&buf); err != nil {
		return info, err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".dasc-snap-*")
	if err != nil {
		return info, err
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if _, err = tmp.Write(buf.Bytes()); err != nil {
		return info, err
	}
	if err = tmp.Sync(); err != nil {
		return info, err
	}
	if err = tmp.Close(); err != nil {
		return info, err
	}
	if err = os.Rename(tmpName, path); err != nil {
		return info, err
	}
	syncDir(dir)
	info = SnapshotInfo{Path: path, Bytes: int64(buf.Len()), Duration: time.Since(start)}
	if p.journal != nil {
		if err = p.journal.Rewind(); err != nil {
			return info, fmt.Errorf("server: journal rotation after snapshot: %w", err)
		}
		info.Rotated = true
	}
	p.ticksSinceSnap = 0
	p.reg.Counter(obs.MSnapshotsTotal).Inc()
	p.reg.Gauge(obs.MSnapshotBytesGauge).Set(float64(info.Bytes))
	p.reg.Histogram(obs.TSnapshotSeconds).ObserveDuration(info.Duration)
	p.log.Info("snapshot written",
		"path", info.Path, "bytes", info.Bytes,
		"elapsed", info.Duration, "journal_rotated", info.Rotated)
	return info, nil
}

// syncDir best-effort fsyncs a directory so a rename is durable; some
// filesystems reject directory syncs, which is not worth failing a snapshot
// over.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// maybeSnapshotLocked runs the automatic snapshot policy after a tick:
// every SnapshotEvery ticks, write SnapshotPath and rotate the journal.
// Suppressed while replaying (the journal file is being read, and rotating
// it mid-replay would pull the tail out from under the reader); failures
// are counted (dasc_snapshot_failures_total) but never fail the tick that
// triggered them — the tick itself is already journaled.
//
// requires: p.mu
func (p *Platform) maybeSnapshotLocked() {
	if p.snapPath == "" || p.snapEvery <= 0 || p.replaying {
		return
	}
	p.ticksSinceSnap++
	if p.ticksSinceSnap < p.snapEvery {
		return
	}
	if _, err := p.saveSnapshotLocked(p.snapPath); err != nil {
		p.log.Error("automatic snapshot failed", "path", p.snapPath, "error", err.Error())
	}
	p.ticksSinceSnap = 0
}

// RecoveryReport describes a Recover run: what the snapshot restored and
// what the journal tail replayed on top of it.
type RecoveryReport struct {
	SnapshotLoaded bool
	SnapshotPath   string
	SnapshotBytes  int64
	Replay         ReplayReport
	Duration       time.Duration
}

// Recover restores a platform from its durable state: load the snapshot at
// snapshotPath if one exists, then replay the journal at journalPath on top
// of it. Missing files are fine (first boot, or no snapshot taken yet). A
// torn final journal line is truncated from the file so subsequent appends
// cannot bury a partial line inside the journal (which would turn a
// tolerated torn tail into fatal interior corruption on the next restart).
func Recover(p *Platform, snapshotPath, journalPath string) (RecoveryReport, error) {
	start := time.Now()
	var rep RecoveryReport
	if snapshotPath != "" {
		f, err := os.Open(snapshotPath)
		switch {
		case err == nil:
			rerr := p.ReadSnapshot(f)
			fi, serr := f.Stat()
			f.Close()
			if rerr != nil {
				return rep, fmt.Errorf("server: recover snapshot %s: %w", snapshotPath, rerr)
			}
			rep.SnapshotLoaded = true
			rep.SnapshotPath = snapshotPath
			if serr == nil {
				rep.SnapshotBytes = fi.Size()
			}
		case !os.IsNotExist(err):
			return rep, err
		}
	}
	if journalPath != "" {
		f, err := openForRead(journalPath)
		switch {
		case err == nil:
			rrep, rerr := ReplayJournal(f, p)
			f.Close()
			rep.Replay = rrep
			if rerr != nil {
				return rep, rerr
			}
			if rrep.TornTail {
				if fi, serr := os.Stat(journalPath); serr == nil {
					if terr := os.Truncate(journalPath, fi.Size()-int64(rrep.TornTailBytes)); terr != nil {
						return rep, fmt.Errorf("server: truncating torn journal tail: %w", terr)
					}
				}
			}
		case !os.IsNotExist(err):
			return rep, err
		}
	}
	rep.Duration = time.Since(start)
	return rep, nil
}
