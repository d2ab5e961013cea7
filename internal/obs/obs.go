// Package obs is the platform's instrumentation core: atomic counters,
// gauges, fixed-bound histograms, and a named registry with snapshot/reset
// and text + JSON exposition.
//
// Two contracts shape the API:
//
//   - Nil-safe: every metric method works on a nil receiver and does
//     nothing, and every Registry accessor on a nil registry returns a nil
//     metric. Code under instrumentation holds plain pointers and calls them
//     unconditionally; "observability off" is just "the pointer is nil", so
//     the disabled hot path pays a single nil check per call site
//     (BenchmarkObsOverhead pins this below a nanosecond).
//   - Dependency-light: the package depends only on the standard library,
//     so every layer (core, sim, server, the binaries) can import it
//     without cycles.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value; zero on a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry is a named metric store. Accessors get-or-create, so callers
// never pre-register; names are stable keys (see the dasc_* inventory in
// metrics.go). All methods are safe for concurrent use and nil-safe.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// hooks run at the start of every Snapshot (and so every exposition),
	// outside the registry lock — scrape-time collectors (runtime.go) sample
	// the world only when someone is actually looking.
	hooks []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Labeled builds a registry name carrying Prometheus labels:
// Labeled("dasc_http_requests_total", "route", "POST /v1/workers") →
// `dasc_http_requests_total{route="POST /v1/workers"}`. The text exposition
// splits such names back into family + labels, so one TYPE line covers every
// label combination of a family. kv pairs must come in key, value order.
func Labeled(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(kv[i])
		sb.WriteByte('=')
		sb.WriteString(quoteLabelValue(kv[i+1]))
	}
	sb.WriteByte('}')
	return sb.String()
}

// quoteLabelValue escapes a label value per the Prometheus text format:
// backslash, double-quote and newline are escaped inside double quotes.
func quoteLabelValue(v string) string {
	var sb strings.Builder
	sb.WriteByte('"')
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(v[i])
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

// splitName separates a registry name into its metric family and the label
// block (without braces); labels is empty for plain names.
func splitName(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// joinLabels merges a name's label block with one extra label (used for the
// `le` label of histogram exposition).
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	if extra == "" {
		return labels
	}
	return labels + "," + extra
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named log-scale histogram, creating it on first use
// with the DefaultLatencyBounds (100µs–10s exponential buckets). A nil
// registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramBounds(name, nil)
}

// HistogramBounds is Histogram with explicit ascending bucket bounds (nil
// means DefaultLatencyBounds); the bounds of an already-created histogram are
// not changed.
func (r *Registry) HistogramBounds(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = DefaultLatencyBounds()
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// AddScrapeHook registers f to run at the start of every Snapshot (and so of
// every text/JSON exposition), outside the registry lock — f may freely set
// gauges and counters on the registry. No-op on a nil registry.
func (r *Registry) AddScrapeHook(f func()) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, f)
	r.mu.Unlock()
}

// Snapshot is a point-in-time copy of every registered metric.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]float64        `json:"gauges"`
	Histograms map[string]HistogramStats `json:"histograms"`
}

// Snapshot copies out every metric, after running the registered scrape
// hooks. The empty Snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramStats{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	for _, f := range hooks {
		f()
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Stats()
	}
	return s
}

// Reset zeroes every metric, keeping the registered names (so exposition
// stays stable across a reset). No-op on a nil registry.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// promFamily accumulates one metric family's text exposition: the TYPE line
// plus every sample, across all label combinations sharing the family name.
type promFamily struct {
	typ   string
	lines []string
}

// addSample appends one formatted sample line to name's family, creating the
// family (with its TYPE) on first use.
func addSample(fams map[string]*promFamily, order *[]string, family, typ, line string) {
	f, ok := fams[family]
	if !ok {
		f = &promFamily{typ: typ}
		fams[family] = f
		*order = append(*order, family)
	}
	f.lines = append(f.lines, line)
}

// sampleName renders family{labels,extra} — or the bare family when both
// label blocks are empty.
func sampleName(family, labels, extra string) string {
	l := joinLabels(labels, extra)
	if l == "" {
		return family
	}
	return family + "{" + l + "}"
}

// WriteText writes the registry in the Prometheus text exposition format
// (version 0.0.4): counters and gauges as single samples, histograms as typed
// histogram blocks with cumulative le-labeled buckets plus _sum and _count.
// Registry names may carry label blocks (see Labeled); all label
// combinations of a family share one `# TYPE` line, as the format requires. Families are sorted by name and
// samples within a family by registry name, so output is diff- and
// test-friendly (obs.ValidateExposition round-trips it).
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	fams := make(map[string]*promFamily)
	var order []string

	for _, name := range sortedKeys(s.Counters) {
		family, labels := splitName(name)
		addSample(fams, &order, family, "counter",
			fmt.Sprintf("%s %d", sampleName(family, labels, ""), s.Counters[name]))
	}
	for _, name := range sortedKeys(s.Gauges) {
		family, labels := splitName(name)
		addSample(fams, &order, family, "gauge",
			fmt.Sprintf("%s %g", sampleName(family, labels, ""), s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		family, labels := splitName(name)
		hs := s.Histograms[name]
		if hs.Buckets == nil {
			// Empty histogram: expose a single all-zero +Inf bucket so the
			// family stays present (and parseable) before the first sample.
			hs.Buckets = []BucketCount{{LE: "+Inf"}}
		}
		for _, b := range hs.Buckets {
			addSample(fams, &order, family, "histogram",
				fmt.Sprintf("%s %d", sampleName(family+"_bucket", labels, `le=`+quoteLabelValue(b.LE)), b.Count))
		}
		addSample(fams, &order, family, "histogram",
			fmt.Sprintf("%s %g", sampleName(family+"_sum", labels, ""), hs.Sum))
		addSample(fams, &order, family, "histogram",
			fmt.Sprintf("%s %d", sampleName(family+"_count", labels, ""), hs.Count))
	}

	sort.Strings(order)
	for _, family := range order {
		f := fams[family]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, f.typ); err != nil {
			return err
		}
		for _, line := range f.lines {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteJSON writes the snapshot as JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.Snapshot())
}
