package obs

import "sync"

// DefaultTraceDepth is the ring capacity the platforms use unless
// configured otherwise.
const DefaultTraceDepth = 256

// Ring is a fixed-capacity ring buffer of the most recent records (batch
// traces, ingest drain traces), safe for concurrent use. Every method is
// nil-safe; Last returns oldest first and never nil.
type Ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int
	n    int
}

// NewRing creates a ring holding the last capacity records; a non-positive
// capacity means DefaultTraceDepth.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		capacity = DefaultTraceDepth
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Add appends a record, evicting the oldest when full. No-op on a nil ring.
func (r *Ring[T]) Add(t T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Len returns how many records are buffered; zero on a nil ring.
func (r *Ring[T]) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Cap returns the ring capacity; zero on a nil ring.
func (r *Ring[T]) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Last returns up to n of the most recent records, oldest first. Asking for
// more than is buffered returns everything; the result is always non-nil so
// it JSON-encodes as [] rather than null.
func (r *Ring[T]) Last(n int) []T {
	if r == nil || n <= 0 {
		return []T{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > r.n {
		n = r.n
	}
	out := make([]T, 0, n)
	start := r.next - n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}
