package server

import (
	"sync"

	"dasc/internal/dataset"
)

// Fast-path decoding for the two registration DTOs. POST /v1/workers and
// POST /v1/tasks dominate the ingest benchmark, and the generic
// encoding/json decoder is a measurable slice of per-request CPU there. The
// bodies are tiny flat objects with numeric fields and integer arrays, which
// the strict scanner the snapshot and instance decoders share
// (dataset.Scanner) reads in one pass. ANYTHING it does not fully recognise
// (escapes, strings, null, nested objects, unknown or repeated keys, numbers
// outside the JSON grammar or the field's range, trailing data) makes it
// bail and the caller re-parses with the strict json.Decoder, which produces
// the proper error or handles the oddity. The fast path therefore never
// changes observable behaviour — it only skips reflection for well-formed
// requests.

var (
	workerDTOKeys = []string{"x", "y", "start", "wait", "velocity", "max_dist", "skills"}
	taskDTOKeys   = []string{"x", "y", "start", "wait", "requires", "deps", "weight"}
)

// parseWorkerDTO fast-parses a POST /v1/workers body into d, reporting
// whether it fully recognised the input. false means "use the real decoder",
// not "invalid".
func parseWorkerDTO(body []byte, d *workerDTO) bool {
	s := dataset.NewScanner(body)
	return s.Object(workerDTOKeys, func(k int) bool {
		var ok bool
		switch k {
		case 0:
			d.X, ok = s.Float()
		case 1:
			d.Y, ok = s.Float()
		case 2:
			d.Start, ok = s.Float()
		case 3:
			d.Wait, ok = s.Float()
		case 4:
			d.Velocity, ok = s.Float()
		case 5:
			d.MaxDist, ok = s.Float()
		default:
			d.Skills, ok = dataset.ScanInts(s, d.Skills[:0])
		}
		return ok
	}) && s.End()
}

// parseTaskDTO is parseWorkerDTO for POST /v1/tasks bodies.
func parseTaskDTO(body []byte, d *taskDTO) bool {
	s := dataset.NewScanner(body)
	return s.Object(taskDTOKeys, func(k int) bool {
		var ok bool
		switch k {
		case 0:
			d.X, ok = s.Float()
		case 1:
			d.Y, ok = s.Float()
		case 2:
			d.Start, ok = s.Float()
		case 3:
			d.Wait, ok = s.Float()
		case 4:
			ok = dataset.ScanInt(s, &d.Requires)
		case 5:
			d.Deps, ok = dataset.ScanInts(s, d.Deps[:0])
		default:
			d.Weight, ok = s.Float()
		}
		return ok
	}) && s.End()
}

// bodyPool recycles request-body buffers for the registration endpoints.
var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}
