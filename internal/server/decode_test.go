package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"dasc/internal/dataset"
)

// decodeStrict mirrors the fallback path in decode(): the strict generic
// decoder the fast path must agree with whenever it claims success.
func decodeStrict(t *testing.T, body string, v any) error {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader([]byte(body)))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// TestParseWorkerDTOEquivalence feeds a spread of POST /v1/workers bodies
// through the record's one-pass scan and the generic decoder. Whenever the
// fast path accepts, its result must equal the decoder's; whenever it
// bails, the decoder must be the one deciding (including producing errors
// for genuinely bad input).
func TestParseWorkerDTOEquivalence(t *testing.T) {
	cases := []struct {
		name string
		body string
		fast bool // fast path expected to fully recognise the body
	}{
		{"typical", `{"x":1.5,"y":-2,"start":0,"wait":1e6,"velocity":1,"max_dist":1000,"skills":[3]}`, true},
		{"whitespace", " {\n\t\"x\" : 2 , \"skills\" : [ 1 , 2 ] } ", true},
		{"empty object", `{}`, true},
		{"empty skills", `{"skills":[]}`, true},
		{"exponents", `{"x":-1.25e-3,"y":2E+2}`, true},
		{"unknown field", `{"x":1,"bogus":2}`, false},
		{"string value", `{"x":"1"}`, false},
		{"escaped key", `{"\u0078":1}`, false},
		{"nested object", `{"x":{"a":1}}`, false},
		{"null skills", `{"skills":null}`, false},
		{"fractional skill", `{"skills":[1.5]}`, false},
		{"out of range", `{"x":1e999}`, false},
		{"truncated", `{"x":1`, false},
		{"trailing garbage", `{"x":1}tail`, false},
		{"not an object", `[1,2]`, false},
		{"empty body", ``, false},
		{"repeated key", `{"x":1,"x":2}`, false},
		{"case-variant key", `{"X":1}`, false},
		{"plus sign", `{"x":+1}`, false},
		{"bare fraction", `{"x":.5}`, false},
		{"leading zero", `{"x":01}`, false},
		{"trailing dot", `{"x":1.}`, false},
		{"exponent skill", `{"skills":[1e0]}`, false},
		{"int32 overflow skill", `{"skills":[4294967297]}`, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var fast dataset.WorkerRecord
			ok := fast.Scan([]byte(c.body))
			if ok != c.fast {
				t.Fatalf("WorkerRecord.Scan recognised=%v, want %v", ok, c.fast)
			}
			if !ok {
				return // generic decoder decides; nothing to compare
			}
			var want dataset.WorkerRecord
			if err := decodeStrict(t, c.body, &want); err != nil {
				t.Fatalf("fast path accepted body the decoder rejects: %v", err)
			}
			if !reflect.DeepEqual(normWorker(fast), normWorker(want)) {
				t.Errorf("fast %+v != decoder %+v", fast, want)
			}
		})
	}
}

func TestParseTaskDTOEquivalence(t *testing.T) {
	cases := []struct {
		name string
		body string
		fast bool
	}{
		{"typical", `{"x":3,"y":4,"start":1,"wait":50,"requires":2,"deps":[0,1],"weight":1.5}`, true},
		{"no deps", `{"x":3,"y":4,"requires":1,"weight":2}`, true},
		{"empty deps", `{"deps":[]}`, true},
		{"null deps", `{"deps":null}`, true},
		{"fractional requires", `{"requires":1.5}`, false},
		{"unknown field", `{"velocity":1}`, false},
		{"deps of strings", `{"deps":["a"]}`, false},
		{"out of range weight", `{"weight":-1e999}`, false},
		{"plus sign", `{"x":+1}`, false},
		{"bare fraction", `{"x":.5}`, false},
		{"leading zero", `{"x":01}`, false},
		{"trailing dot", `{"x":1.}`, false},
		{"fractional dep", `{"deps":[2.0]}`, false},
		{"int32 overflow requires", `{"requires":4294967297}`, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var fast dataset.TaskRecord
			ok := fast.Scan([]byte(c.body))
			if ok != c.fast {
				t.Fatalf("TaskRecord.Scan recognised=%v, want %v", ok, c.fast)
			}
			if !ok {
				return
			}
			var want dataset.TaskRecord
			if err := decodeStrict(t, c.body, &want); err != nil {
				t.Fatalf("fast path accepted body the decoder rejects: %v", err)
			}
			if !reflect.DeepEqual(normTask(fast), normTask(want)) {
				t.Errorf("fast %+v != decoder %+v", fast, want)
			}
		})
	}
}

// normWorker/normTask canonicalise nil vs empty slices, which the two paths
// may legitimately differ on and no caller distinguishes.
func normWorker(d dataset.WorkerRecord) dataset.WorkerRecord {
	if len(d.Skills) == 0 {
		d.Skills = nil
	}
	return d
}

func normTask(d dataset.TaskRecord) dataset.TaskRecord {
	if len(d.Deps) == 0 {
		d.Deps = nil
	}
	return d
}

// FuzzParseDTO holds both records' one-pass scans to the strict decoder on
// arbitrary registration bodies: whenever a scan recognises a body, the
// strict decoder accepts it too and decodes the same record. Bodies the strict decoder
// rejects are therefore always left to it.
func FuzzParseDTO(f *testing.F) {
	for _, body := range []string{
		`{"x":1.5,"y":-2,"start":0,"wait":1e6,"velocity":1,"max_dist":1000,"skills":[3]}`,
		`{"x":3,"y":4,"start":1,"wait":50,"requires":2,"deps":[0,1],"weight":1.5}`,
		`{"x":+1}`, `{"skills":[1e0]}`, `{"deps":[2.0]}`,
		`{"requires":4294967297}`, `{"skills":[4294967297]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fw dataset.WorkerRecord
		if fw.Scan(body) {
			var want dataset.WorkerRecord
			if err := decodeStrict(t, string(body), &want); err != nil {
				t.Fatalf("worker fast path accepted %q, which the decoder rejects: %v", body, err)
			}
			if !reflect.DeepEqual(normWorker(fw), normWorker(want)) {
				t.Fatalf("worker %q: fast %+v != decoder %+v", body, fw, want)
			}
		}
		var ft dataset.TaskRecord
		if ft.Scan(body) {
			var want dataset.TaskRecord
			if err := decodeStrict(t, string(body), &want); err != nil {
				t.Fatalf("task fast path accepted %q, which the decoder rejects: %v", body, err)
			}
			if !reflect.DeepEqual(normTask(ft), normTask(want)) {
				t.Fatalf("task %q: fast %+v != decoder %+v", body, ft, want)
			}
		}
	})
}
