package dataset

import (
	"dasc/internal/geo"
	"dasc/internal/model"
)

// WorkerRecord is the JSON form of one worker, ⟨l_w, s_w, w_w, v_w, d_w,
// WS_w⟩: an instance file's worker after its id, the body of POST
// /v1/workers and the payload of a worker journal entry.
type WorkerRecord struct {
	X        float64       `json:"x"`
	Y        float64       `json:"y"`
	Start    float64       `json:"start"`
	Wait     float64       `json:"wait"`
	Velocity float64       `json:"velocity"`
	MaxDist  float64       `json:"max_dist"`
	Skills   []model.Skill `json:"skills"`
}

// TaskRecord is the JSON form of one task, ⟨l_t, s_t, w_t, rs_t, D_t⟩ and
// its weight: an instance file's task after its id, the body of POST
// /v1/tasks and the payload of a task journal entry.
type TaskRecord struct {
	X        float64        `json:"x"`
	Y        float64        `json:"y"`
	Start    float64        `json:"start"`
	Wait     float64        `json:"wait"`
	Requires model.Skill    `json:"requires"`
	Deps     []model.TaskID `json:"deps,omitempty"`
	Weight   float64        `json:"weight,omitempty"`
}

// NewWorkerRecord returns w's record.
func NewWorkerRecord(w *model.Worker) WorkerRecord {
	return WorkerRecord{
		X: w.Loc.X, Y: w.Loc.Y, Start: w.Start, Wait: w.Wait,
		Velocity: w.Velocity, MaxDist: w.MaxDist, Skills: w.Skills.Skills(),
	}
}

// NewTaskRecord returns t's record; it shares t's dependency list.
func NewTaskRecord(t *model.Task) TaskRecord {
	return TaskRecord{
		X: t.Loc.X, Y: t.Loc.Y, Start: t.Start, Wait: t.Wait,
		Requires: t.Requires, Deps: t.Deps, Weight: t.Weight,
	}
}

// Worker returns the worker r describes, with ID 0. A skill outside
// [0, model.MaxSkill] is model.CheckSkill's error, returned before any
// skill set is built; each caller names the worker.
func (r *WorkerRecord) Worker() (model.Worker, error) {
	for _, sk := range r.Skills {
		if err := model.CheckSkill(sk); err != nil {
			return model.Worker{}, err
		}
	}
	return model.Worker{
		Loc: geo.Pt(r.X, r.Y), Start: r.Start, Wait: r.Wait,
		Velocity: r.Velocity, MaxDist: r.MaxDist,
		Skills: model.NewSkillSet(r.Skills...),
	}, nil
}

// Task returns the task r describes, with ID 0. Its dependency list is an
// exactly sized copy, nil when empty, so r can be reused.
func (r *TaskRecord) Task() model.Task {
	t := model.Task{
		Loc: geo.Pt(r.X, r.Y), Start: r.Start, Wait: r.Wait,
		Requires: r.Requires, Weight: r.Weight,
	}
	if len(r.Deps) > 0 {
		t.Deps = append(make([]model.TaskID, 0, len(r.Deps)), r.Deps...)
	}
	return t
}

// The keys of an instance file's worker and task. A record (a registration
// body or a journal payload) has the same keys without "id".
var (
	workerKeys = []string{"id", "x", "y", "start", "wait", "velocity", "max_dist", "skills"}
	taskKeys   = []string{"id", "x", "y", "start", "wait", "requires", "deps", "weight"}
)

// Scan decodes b, which must hold one worker record and nothing else, into
// r. false means "let the strict json.Decoder decide", as for every
// Scanner method.
func (r *WorkerRecord) Scan(b []byte) bool {
	s := NewScanner(b)
	return scanWorker(s, r, nil) && s.End()
}

// Scan is WorkerRecord.Scan for a task record.
func (r *TaskRecord) Scan(b []byte) bool {
	s := NewScanner(b)
	return scanTask(s, r, nil) && s.End()
}

// scanWorker consumes one worker object into r, reusing r's skill slice.
// With id non-nil the object is an instance file's worker, whose "id" key
// goes to *id. A null skill list bails.
func scanWorker(s *Scanner, r *WorkerRecord, id *model.WorkerID) bool {
	*r = WorkerRecord{Skills: r.Skills[:0]}
	keys, skip := workerKeys[1:], 1
	if id != nil {
		keys, skip = workerKeys, 0
	}
	return s.Object(keys, func(k int) bool {
		var ok bool
		switch k + skip {
		case 0:
			ok = ScanInt(s, id)
		case 1:
			r.X, ok = s.Float()
		case 2:
			r.Y, ok = s.Float()
		case 3:
			r.Start, ok = s.Float()
		case 4:
			r.Wait, ok = s.Float()
		case 5:
			r.Velocity, ok = s.Float()
		case 6:
			r.MaxDist, ok = s.Float()
		default:
			r.Skills, ok = ScanInts(s, r.Skills)
		}
		return ok
	})
}

// scanTask is scanWorker for a task, reusing r's dependency slice. A null
// dependency list reads as an empty one.
func scanTask(s *Scanner, r *TaskRecord, id *model.TaskID) bool {
	*r = TaskRecord{Deps: r.Deps[:0]}
	keys, skip := taskKeys[1:], 1
	if id != nil {
		keys, skip = taskKeys, 0
	}
	return s.Object(keys, func(k int) bool {
		var ok bool
		switch k + skip {
		case 0:
			ok = ScanInt(s, id)
		case 1:
			r.X, ok = s.Float()
		case 2:
			r.Y, ok = s.Float()
		case 3:
			r.Start, ok = s.Float()
		case 4:
			r.Wait, ok = s.Float()
		case 5:
			ok = ScanInt(s, &r.Requires)
		case 6:
			ok = s.Null()
			if !ok {
				r.Deps, ok = ScanInts(s, r.Deps)
			}
		default:
			r.Weight, ok = s.Float()
		}
		return ok
	})
}
