package main

import "time"

// sample is one request's timing, as offsets from the start of the measured
// phase. An open loop times a request from when it was due, not from when it
// was sent: a stall then shows in the latency of every request queued behind
// it instead of vanishing into a late send. The generator's own delay (slop:
// from when the request could have gone out, its due time or the previous
// request's completion on a busy connection, until it did) stays in the
// latency, since on a shared host a server that hogs the CPUs causes it too;
// it is reported on its own as loadgen.late_ms.
type sample struct {
	due, ready, sent, done time.Duration
	err                    error
}

func (s sample) latency() time.Duration { return s.done - s.due }
func (s sample) slop() time.Duration    { return s.sent - s.ready }
func (s sample) rtt() time.Duration     { return s.done - s.sent }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clock is the time source of the open loop; tests substitute a fake one.
type clock interface {
	now() time.Duration
	sleepUntil(time.Duration)
}

type wallClock struct{ t0 time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.t0) }

func (c wallClock) sleepUntil(d time.Duration) {
	if w := d - c.now(); w > 0 {
		time.Sleep(w)
	}
}

// openLoop issues requests 0..len(due)-1 in order over one connection: each
// goes out at its due time, or as soon as the previous one returns when that
// is later. send performs request i synchronously.
func openLoop(c clock, due []time.Duration, send func(i int) error) []sample {
	out := make([]sample, len(due))
	var prev time.Duration
	for i, d := range due {
		c.sleepUntil(d)
		s := sample{due: d, ready: max(d, prev), sent: c.now()}
		s.err = send(i)
		s.done = c.now()
		prev = s.done
		out[i] = s
	}
	return out
}
