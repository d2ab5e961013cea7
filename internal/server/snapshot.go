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
// post-rotation journal tail reproduces the pre-crash platform exactly. The
// strict decoder reads this shape (its field names are in its errors).
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

// snapshotHead and snapshotTail are snapshotFile's members before and after
// the instance: the writer encodes them on their own and splices the
// compact instance in between.
type snapshotHead struct {
	Version int     `json:"version"`
	Now     float64 `json:"now"`
	Batches int     `json:"batches"`
	Wasted  int     `json:"wasted"`
	Rogue   int     `json:"rogue"`
}

type snapshotTail struct {
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
	var buf bytes.Buffer
	if err := p.appendSnapshotLocked(&buf); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// appendSnapshotLocked appends the snapshot document, one line, to buf:
// the head's members, the compact instance written straight after them,
// then the tail's members, whose opening brace becomes the separating
// comma.
//
// requires: p.mu
func (p *Platform) appendSnapshotLocked(buf *bytes.Buffer) error {
	tail := snapshotTail{Workers: make([]snapshotWorkerState, len(p.workers))}
	for i := range p.workers {
		ws := p.kernel.Worker(&p.workers[i])
		tail.Workers[i] = snapshotWorkerState{
			X: ws.Loc.X, Y: ws.Loc.Y,
			BusyUntil: ws.BusyUntil, DistUsed: ws.DistUsed, Done: ws.Done,
		}
	}
	for i := range p.tasks {
		id := p.tasks[i].ID
		tb := p.kernel.Task(id)
		if tb.Assigned {
			tail.Assigned = append(tail.Assigned, snapshotAssigned{Task: id, Worker: tb.Worker, FinishAt: tb.FinishAt})
		}
		if tb.Botched {
			tail.Botched = append(tail.Botched, id)
		}
	}
	enc := json.NewEncoder(buf)
	if err := enc.Encode(&snapshotHead{
		Version: SnapshotVersion, Now: p.now,
		Batches: p.batches, Wasted: p.wasted, Rogue: p.rogue,
	}); err != nil {
		return err
	}
	buf.Truncate(buf.Len() - len("}\n"))
	buf.WriteString(`,"instance":`)
	// The encoder only reads the registries, which the lock keeps still.
	if err := dataset.WriteCompact(buf, &model.Instance{Workers: p.workers, Tasks: p.tasks}); err != nil {
		return fmt.Errorf("server: snapshot instance: %w", err)
	}
	buf.Truncate(buf.Len() - len("\n"))
	brace := buf.Len()
	if err := enc.Encode(&tail); err != nil {
		return err
	}
	buf.Bytes()[brace] = ','
	return nil
}

// ReadSnapshot restores a snapshot into an empty platform (one with no
// registrations and no ticks run). The restored registries are NOT
// re-journaled: the snapshot replaces the journal prefix it rotated away.
func (p *Platform) ReadSnapshot(r io.Reader) error {
	return p.readSnapshot(r, 0)
}

// readSnapshot is ReadSnapshot with a hint of the snapshot's size in bytes,
// so the one buffer it reads into is allocated once.
func (p *Platform) readSnapshot(r io.Reader, sizeHint int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.workers) > 0 || len(p.tasks) > 0 || p.batches > 0 {
		return fmt.Errorf("server: snapshot restore into non-empty platform (%d workers, %d tasks, %d batches)",
			len(p.workers), len(p.tasks), p.batches)
	}
	buf := bytes.NewBuffer(make([]byte, 0, max(sizeHint, 0)+bytes.MinRead))
	if _, err := buf.ReadFrom(r); err != nil {
		return fmt.Errorf("server: snapshot decode: %w", err)
	}
	// One scan straight into the model slices and the kernel's worker
	// books; the strict decoder reads what the scan does not recognise.
	d, ok := scanSnapshot(buf.Bytes())
	if !ok {
		var err error
		if d, err = decodeSnapshotStrict(buf.Bytes()); err != nil {
			return err
		}
	}
	return p.restoreLocked(d)
}

// snapshotDoc is a decoded snapshot before restore's checks run on it.
type snapshotDoc struct {
	version                int
	now                    float64
	batches, wasted, rogue int
	// inst is the scanned instance; instRaw the instance's bytes where the
	// strict decoder read the snapshot.
	inst     *dataset.Doc
	instRaw  json.RawMessage
	assigned []snapshotAssigned
	botched  []model.TaskID
	workers  []core.WorkerState
}

// instance decodes (on the strict path) and checks the snapshot's instance.
func (d *snapshotDoc) instance() (*model.Instance, error) {
	if d.inst != nil {
		return d.inst.Check()
	}
	return dataset.Decode(d.instRaw)
}

// decodeSnapshotStrict decodes a snapshot with encoding/json, unknown
// fields rejected.
func decodeSnapshotStrict(b []byte) (*snapshotDoc, error) {
	var sf snapshotFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sf); err != nil {
		return nil, fmt.Errorf("server: snapshot decode: %w", err)
	}
	d := &snapshotDoc{
		version: sf.Version, now: sf.Now,
		batches: sf.Batches, wasted: sf.Wasted, rogue: sf.Rogue,
		instRaw: sf.Instance, assigned: sf.Assigned, botched: sf.Botched,
		workers: make([]core.WorkerState, len(sf.Workers)),
	}
	for i, ws := range sf.Workers {
		d.workers[i] = core.WorkerState{
			Loc:       pt(ws.X, ws.Y),
			BusyUntil: ws.BusyUntil, DistUsed: ws.DistUsed, Done: ws.Done,
		}
	}
	return d, nil
}

var (
	snapshotKeys    = []string{"version", "now", "batches", "wasted", "rogue", "instance", "assigned", "botched", "worker_state"}
	assignedKeys    = []string{"task", "worker", "finish_at"}
	workerStateKeys = []string{"x", "y", "busy_until", "dist_used", "done"}
)

// scanSnapshot is the one-pass decoder: false means the strict decoder must
// read b.
func scanSnapshot(b []byte) (*snapshotDoc, bool) {
	s := dataset.NewScanner(b)
	d := &snapshotDoc{}
	ok := s.Object(snapshotKeys, func(k int) bool {
		var ok bool
		switch k {
		case 0:
			ok = dataset.ScanInt(s, &d.version)
		case 1:
			d.now, ok = s.Float()
		case 2:
			ok = dataset.ScanInt(s, &d.batches)
		case 3:
			ok = dataset.ScanInt(s, &d.wasted)
		case 4:
			ok = dataset.ScanInt(s, &d.rogue)
		case 5:
			d.inst, ok = dataset.ScanInstance(s)
		case 6:
			if s.Null() {
				return true
			}
			ok = s.Array(func() bool {
				var a snapshotAssigned
				ok := s.Object(assignedKeys, func(k int) bool {
					var ok bool
					switch k {
					case 0:
						ok = dataset.ScanInt(s, &a.Task)
					case 1:
						ok = dataset.ScanInt(s, &a.Worker)
					default:
						a.FinishAt, ok = s.Float()
					}
					return ok
				})
				d.assigned = append(d.assigned, a)
				return ok
			})
		case 7:
			if s.Null() {
				return true
			}
			d.botched, ok = dataset.ScanInts(s, d.botched)
		default:
			if s.Null() {
				return true
			}
			ok = s.Array(func() bool {
				var ws core.WorkerState
				ok := s.Object(workerStateKeys, func(k int) bool {
					var ok bool
					switch k {
					case 0:
						ws.Loc.X, ok = s.Float()
					case 1:
						ws.Loc.Y, ok = s.Float()
					case 2:
						ws.BusyUntil, ok = s.Float()
					case 3:
						ws.DistUsed, ok = s.Float()
					default:
						ok = dataset.ScanInt(s, &ws.Done)
					}
					return ok
				})
				d.workers = append(d.workers, ws)
				return ok
			})
		}
		return ok
	})
	return d, ok && s.End()
}

// restoreLocked runs the snapshot's checks and, when they pass, installs it.
//
// requires: p.mu
func (p *Platform) restoreLocked(d *snapshotDoc) error {
	if d.version != SnapshotVersion {
		return fmt.Errorf("server: unsupported snapshot version %d (want %d)", d.version, SnapshotVersion)
	}
	in, err := d.instance()
	if err != nil {
		return fmt.Errorf("server: snapshot instance: %w", err)
	}
	if len(d.workers) != len(in.Workers) {
		return fmt.Errorf("server: snapshot has %d worker states for %d workers",
			len(d.workers), len(in.Workers))
	}
	nTasks := len(in.Tasks)
	tasks := make([]core.TaskBook, nTasks)
	assignLog := make([]model.Pair, 0, len(d.assigned))
	for _, a := range d.assigned {
		if a.Task < 0 || int(a.Task) >= nTasks || a.Worker < 0 || int(a.Worker) >= len(in.Workers) {
			return fmt.Errorf("server: snapshot assignment (w%d, t%d) out of range", a.Worker, a.Task)
		}
		if tasks[a.Task].Assigned {
			return fmt.Errorf("server: snapshot assigns task t%d twice", a.Task)
		}
		tasks[a.Task] = core.TaskBook{Assigned: true, Worker: a.Worker, FinishAt: a.FinishAt}
		assignLog = append(assignLog, model.Pair{Worker: a.Worker, Task: a.Task})
	}
	for _, tid := range d.botched {
		if tid < 0 || int(tid) >= nTasks {
			return fmt.Errorf("server: snapshot botched task t%d out of range", tid)
		}
		tasks[tid].Botched = true
	}
	p.workers = in.Workers
	p.tasks = in.Tasks
	p.kernel.Restore(d.workers, tasks)
	p.assignLog = assignLog
	p.now = d.now
	p.batches = d.batches
	p.wasted = d.wasted
	p.rogue = d.rogue
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
	if err = p.appendSnapshotLocked(&buf); err != nil {
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
			var size int64
			if fi, serr := f.Stat(); serr == nil {
				size = fi.Size()
			}
			rerr := p.readSnapshot(f, size)
			f.Close()
			if rerr != nil {
				return rep, fmt.Errorf("server: recover snapshot %s: %w", snapshotPath, rerr)
			}
			rep.SnapshotLoaded = true
			rep.SnapshotPath = snapshotPath
			rep.SnapshotBytes = size
		case !os.IsNotExist(err):
			return rep, err
		}
	}
	if journalPath != "" {
		f, err := os.Open(journalPath)
		switch {
		case err == nil:
			rrep, rerr := ReplayJournal(f, p)
			f.Close()
			rep.Replay = rrep
			if rerr != nil {
				return rep, rerr
			}
			if rrep.TornTail {
				if terr := os.Truncate(journalPath, rrep.Bytes-int64(rrep.TornTailBytes)); terr != nil {
					return rep, fmt.Errorf("server: truncating torn journal tail: %w", terr)
				}
			}
		case !os.IsNotExist(err):
			return rep, err
		}
	}
	rep.Duration = time.Since(start)
	return rep, nil
}
