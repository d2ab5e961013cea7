package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"dasc/internal/dataset"
	"dasc/internal/geo"
	"dasc/internal/viz"
)

// DefaultMaxBodyBytes caps HTTP request bodies when Config.MaxBodyBytes is
// zero. 1 MiB fits any plausible worker or task registration (a task with
// tens of thousands of dependencies) while keeping a misbehaving client from
// buffering arbitrary amounts of memory server-side.
const DefaultMaxBodyBytes = 1 << 20

// idResponse acknowledges a registration.
type idResponse struct {
	ID int `json:"id"`
}

// writeID answers a registration with {"id":n}. This is the hottest response
// on the server, so it is formatted with strconv instead of going through the
// reflective json encoder (which shows up in ingest-benchmark profiles).
func writeID(w http.ResponseWriter, id int) {
	buf := make([]byte, 0, 24)
	buf = append(buf, `{"id":`...)
	buf = strconv.AppendInt(buf, int64(id), 10)
	buf = append(buf, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_, _ = w.Write(buf)
}

// Handler returns the platform's HTTP API:
//
//	POST /v1/workers      register a worker            → {"id": n}
//	POST /v1/tasks        register a task              → {"id": n}
//	POST /v1/tick?t=12.5  run a batch at logical time  → BatchOutcome
//	POST /v1/snapshot     write a state snapshot, rotate the journal
//	GET  /v1/stats        counters
//	GET  /v1/ingest       group-commit pipeline: queue depth + recent drains (?last=N)
//	GET  /v1/metrics      metric registry, Prometheus text (?format=json for JSON)
//	GET  /v1/trace        recent per-batch traces (?last=N for the newest N)
//	GET  /v1/assignments  all valid pairs so far
//	GET  /v1/instance     dataset JSON (archivable)
//	GET  /v1/svg          spatial snapshot as SVG
//	GET  /v1/healthz      process liveness (always 200)
//	GET  /v1/readyz       503 until recovery completes, then 200
//
// Mutating endpoints (the POSTs) return 503 while the platform is not ready
// (recovering from its journal); reads are always served — /v1/stats,
// /v1/assignments, /v1/instance and /v1/svg from the atomically swapped read
// view, so they never contend with the ingest/tick mutex. Registration
// failures classify: 422 for invalid requests, 429 + Retry-After when the
// group commit's pending list is full, 503 + Retry-After when the journal
// (disk) failed.
//
// Every route runs through the request-telemetry middleware (middleware.go):
// X-Request-ID in/out, per-route dasc_http_* instruments, sampled access log.
func Handler(p *Platform) http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, p.instrument(pattern, h))
	}
	handle("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
		if !ready(p, w) {
			return
		}
		var rec dataset.WorkerRecord
		if err := decode(p, w, r, &rec); err != nil {
			httpError(w, decodeStatus(err), err)
			return
		}
		wk, err := rec.Worker()
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, fmt.Errorf("skills: %w", err))
			return
		}
		id, err := p.RegisterWorkerTagged(wk, requestIDFrom(r.Context()))
		if err != nil {
			httpError(w, registerStatus(w, err), err)
			return
		}
		writeID(w, int(id))
	})
	handle("POST /v1/tasks", func(w http.ResponseWriter, r *http.Request) {
		if !ready(p, w) {
			return
		}
		var rec dataset.TaskRecord
		if err := decode(p, w, r, &rec); err != nil {
			httpError(w, decodeStatus(err), err)
			return
		}
		id, err := p.RegisterTaskTagged(rec.Task(), requestIDFrom(r.Context()))
		if err != nil {
			httpError(w, registerStatus(w, err), err)
			return
		}
		writeID(w, int(id))
	})
	handle("POST /v1/tick", func(w http.ResponseWriter, r *http.Request) {
		if !ready(p, w) {
			return
		}
		// strconv.ParseFloat (unlike a %g scan) rejects trailing garbage;
		// NaN and ±Inf parse but would poison the platform's logical clock,
		// so they are rejected explicitly.
		raw := r.URL.Query().Get("t")
		now, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("missing or invalid ?t=<time>: %q", raw))
			return
		}
		if math.IsNaN(now) || math.IsInf(now, 0) {
			httpError(w, http.StatusBadRequest, fmt.Errorf("non-finite ?t=<time>: %q", raw))
			return
		}
		out, err := p.TickTagged(now, requestIDFrom(r.Context()))
		if err != nil {
			// A tick that failed because the DISK failed is the server's
			// problem (503, retryable), not a request conflict.
			if errors.Is(err, ErrJournal) {
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusServiceUnavailable, err)
				return
			}
			httpError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, out)
	})
	handle("POST /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if !ready(p, w) {
			return
		}
		if p.snapPath == "" {
			httpError(w, http.StatusConflict, errors.New("no snapshot path configured (start the server with -snapshot)"))
			return
		}
		info, err := p.SaveSnapshot(p.snapPath)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	handle("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	handle("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		status := http.StatusOK
		if !p.Ready() {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]bool{"ready": p.Ready()})
	})
	handle("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, p.StatsView())
	})
	handle("GET /v1/ingest", func(w http.ResponseWriter, r *http.Request) {
		depth, capacity := p.IngestQueueDepth()
		n := DefaultIngestBatch
		if raw := r.URL.Query().Get("last"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v <= 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("invalid ?last=%q: want a positive integer", raw))
				return
			}
			n = v
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"enabled":        true,
			"queue_depth":    depth,
			"queue_capacity": capacity,
			"drains":         p.IngestDrains(n),
		})
	})
	handle("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		switch format := r.URL.Query().Get("format"); format {
		case "", "text":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := p.Metrics().WriteText(w); err != nil {
				httpError(w, http.StatusInternalServerError, err)
			}
		case "json":
			w.Header().Set("Content-Type", "application/json")
			if err := p.Metrics().WriteJSON(w); err != nil {
				httpError(w, http.StatusInternalServerError, err)
			}
		default:
			httpError(w, http.StatusBadRequest, fmt.Errorf("unknown ?format=%q (want text or json)", format))
		}
	})
	handle("GET /v1/trace", func(w http.ResponseWriter, r *http.Request) {
		// Same hardening stance as /v1/tick?t=: strict integer parse, no
		// silent defaults for garbage.
		n := p.Traces().Len()
		if raw := r.URL.Query().Get("last"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v <= 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("invalid ?last=%q: want a positive integer", raw))
				return
			}
			n = v // Last clamps over-asks to what is buffered
		}
		writeJSON(w, http.StatusOK, p.Traces().Last(n))
	})
	handle("GET /v1/assignments", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := dataset.WriteAssignment(w, p.AssignmentsView()); err != nil {
			httpError(w, http.StatusInternalServerError, err)
		}
	})
	handle("GET /v1/instance", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := dataset.Write(w, p.InstanceView()); err != nil {
			httpError(w, http.StatusInternalServerError, err)
		}
	})
	handle("GET /v1/svg", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "image/svg+xml")
		err := viz.WriteSVG(w, p.InstanceView(), viz.SVGOptions{
			Assignment: p.AssignmentsView(),
			DrawDeps:   true,
		})
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
		}
	})
	return mux
}

// ready gates mutating endpoints on platform readiness, answering 503 (with
// a Retry-After hint) while recovery is still replaying the journal.
func ready(p *Platform, w http.ResponseWriter) bool {
	if p.Ready() {
		return true
	}
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusServiceUnavailable, errors.New("platform is recovering; retry shortly"))
	return false
}

// record is a registration body: a dataset.WorkerRecord or TaskRecord.
type record interface {
	Scan(body []byte) bool
}

// decode reads a registration body, capped at the platform's body limit,
// into v. The record's one-pass scan reads a well-formed body; anything it
// does not recognise goes to the strict decoder, so errors and edge cases
// are always the decoder's.
func decode(p *Platform, w http.ResponseWriter, r *http.Request, v record) error {
	body, bp, err := readBody(p, w, r)
	if err != nil {
		return err
	}
	defer bodyPool.Put(bp)
	if v.Scan(body) {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// bodyPool recycles request-body buffers for the registration endpoints.
var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// readBody drains the request body into a pooled buffer, preserving the
// MaxBytesReader size cap (readers past the cap surface *MaxBytesError,
// which decodeStatus maps to 413). The returned pool entry must be Put back
// once the bytes are no longer referenced.
func readBody(p *Platform, w http.ResponseWriter, r *http.Request) ([]byte, *[]byte, error) {
	mb := http.MaxBytesReader(w, r.Body, p.maxBody)
	bp := bodyPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := mb.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			*bp = buf
			return buf, bp, nil
		}
		if err != nil {
			*bp = buf
			bodyPool.Put(bp)
			return nil, nil, err
		}
	}
}

// registerStatus maps a registration failure to its HTTP status. Durability
// failures (ErrJournal) and a closing platform are the server's fault — 503
// with a Retry-After hint; a full pending list is backpressure — 429 with
// Retry-After; everything else is request validation — 422.
func registerStatus(w http.ResponseWriter, err error) int {
	switch {
	case errors.Is(err, ErrJournal), errors.Is(err, ErrPlatformClosed):
		w.Header().Set("Retry-After", "1")
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrIngestBacklog):
		w.Header().Set("Retry-After", "1")
		return http.StatusTooManyRequests
	}
	return http.StatusUnprocessableEntity
}

// decodeStatus maps a decode failure to its HTTP status: 413 when the body
// blew the size cap, 400 for malformed JSON.
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// httpError answers with {"error":...} plus the request's correlation ID —
// read back off the response header, where the middleware set it before the
// handler ran, so error bodies self-identify with zero extra plumbing.
func httpError(w http.ResponseWriter, status int, err error) {
	body := map[string]string{"error": err.Error()}
	if id := w.Header().Get(RequestIDHeader); id != "" {
		body["request_id"] = id
	}
	writeJSON(w, status, body)
}

func pt(x, y float64) geo.Point { return geo.Pt(x, y) }
