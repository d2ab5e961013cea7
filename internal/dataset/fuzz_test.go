package dataset

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dasc/internal/model"
)

// FuzzRead checks that arbitrary byte input never panics the decoder, that
// the one-pass scan agrees with the strict decoder — whenever the scan
// recognises a document, the strict decoder accepts it and decodes the same
// one, so documents the strict decoder rejects are always left to it — and
// that anything Read accepts is a valid instance that survives a round trip.
func FuzzRead(f *testing.F) {
	var seed bytes.Buffer
	if err := Write(&seed, model.Example1()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"version":1,"skill_universe":1,"workers":[],"tasks":[]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"version":1,"skill_universe":1,"workers":[],"tasks":[{"id":0,"x":0,"y":0,"start":0,"wait":1,"requires":0,"deps":[0]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if fast, ok := scanDoc(data); ok {
			strict, err := decodeStrict(data)
			if err != nil {
				t.Fatalf("scan accepted a document the strict decoder rejects: %v", err)
			}
			if !reflect.DeepEqual(fast, strict) {
				t.Fatalf("scan decoded %+v, strict decoder %+v", fast, strict)
			}
		}
		in, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted input must be a valid instance…
		if err := in.Validate(); err != nil {
			t.Fatalf("Read accepted an invalid instance: %v", err)
		}
		// …and must round-trip.
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			t.Fatalf("Write after Read: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back.Workers) != len(in.Workers) || len(back.Tasks) != len(in.Tasks) {
			t.Fatal("round trip changed population")
		}
	})
}

// FuzzReadAssignmentHeader exercises the version/unknown-field guards with
// structured-ish inputs.
func FuzzReadAssignmentHeader(f *testing.F) {
	f.Add(1, "workers")
	f.Add(0, "tasks")
	f.Add(99, "extra")
	f.Fuzz(func(t *testing.T, version int, field string) {
		if strings.ContainsAny(field, `"\`) {
			return
		}
		body := `{"version":` + itoa(version) + `,"skill_universe":1,"` + field + `":[]}`
		_, _ = Read(strings.NewReader(body)) // must not panic
	})
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
