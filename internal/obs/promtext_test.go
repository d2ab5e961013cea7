package obs

import (
	"strings"
	"testing"
)

func TestValidateExpositionAcceptsRegistryOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("dasc_a_total").Add(3)
	r.Gauge("dasc_g").Set(1.5)
	r.Histogram("dasc_h_seconds").Observe(0.003)
	r.Histogram("dasc_empty_seconds") // registered, never observed
	r.Counter(Labeled("dasc_http_requests_total", "route", "/v1/workers", "code", "2xx")).Inc()
	// Two series of one histogram family: bucket invariants must be checked
	// per label set, not across the family (route b has fewer observations
	// than route a, so a family-wide cumulative check would false-alarm).
	for i := 0; i < 5; i++ {
		r.Histogram(Labeled("dasc_lat_seconds", "route", "a")).Observe(0.001)
	}
	r.Histogram(Labeled("dasc_lat_seconds", "route", "b")).Observe(0.5)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := ValidateExposition(sb.String())
	if err != nil {
		t.Fatalf("registry output rejected: %v\n%s", err, sb.String())
	}
	if exp.Types["dasc_a_total"] != "counter" || exp.Types["dasc_h_seconds"] != "histogram" ||
		exp.Types["dasc_g"] != "gauge" {
		t.Errorf("types = %v", exp.Types)
	}
	var found bool
	for _, s := range exp.Samples {
		if s.Name == "dasc_http_requests_total" && s.Labels["route"] == "/v1/workers" && s.Labels["code"] == "2xx" {
			found = true
			if s.Value != 1 {
				t.Errorf("labeled counter = %g", s.Value)
			}
		}
	}
	if !found {
		t.Errorf("labeled sample not parsed:\n%s", sb.String())
	}
}

func TestValidateExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE":    "dasc_x_total 1\n# TYPE dasc_x_total counter\n",
		"duplicate TYPE":        "# TYPE dasc_x counter\ndasc_x 1\n# TYPE dasc_x counter\n",
		"unknown type":          "# TYPE dasc_x histo\ndasc_x 1\n",
		"bad metric name":       "# TYPE 9dasc counter\n9dasc 1\n",
		"bad value":             "# TYPE dasc_x counter\ndasc_x one\n",
		"timestamped sample":    "# TYPE dasc_x counter\ndasc_x 1 1700000000\n",
		"unterminated labels":   "# TYPE dasc_x counter\ndasc_x{a=\"b\" 1\n",
		"unquoted label value":  "# TYPE dasc_x counter\ndasc_x{a=b} 1\n",
		"bucket without le":     "# TYPE dasc_h histogram\ndasc_h_bucket 1\ndasc_h_sum 1\ndasc_h_count 1\n",
		"non-cumulative bucket": "# TYPE dasc_h histogram\ndasc_h_bucket{le=\"1\"} 5\ndasc_h_bucket{le=\"+Inf\"} 3\ndasc_h_sum 1\ndasc_h_count 3\n",
		"inf bucket != count":   "# TYPE dasc_h histogram\ndasc_h_bucket{le=\"+Inf\"} 3\ndasc_h_sum 1\ndasc_h_count 4\n",
		"stray summary sample":  "# TYPE dasc_s summary\ndasc_s_bogus 1\n",
	}
	for name, text := range cases {
		if _, err := ValidateExposition(text); err == nil {
			t.Errorf("%s: accepted\n%s", name, text)
		}
	}
}

func TestValidateExpositionEscapedLabels(t *testing.T) {
	text := "# TYPE dasc_x counter\n" +
		"dasc_x{p=\"a\\\\b\\\"c\\nd\"} 2\n"
	exp, err := ValidateExposition(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := exp.Samples[0].Labels["p"]; got != "a\\b\"c\nd" {
		t.Errorf("unescaped label = %q", got)
	}
}

// TestLabeledEscapesValues closes the loop: a label value with every special
// character survives WriteText → ValidateExposition intact.
func TestLabeledEscapesValues(t *testing.T) {
	r := NewRegistry()
	raw := `pa\th"q` + "\n2"
	r.Counter(Labeled("dasc_x_total", "route", raw)).Inc()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := ValidateExposition(sb.String())
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if got := exp.Samples[0].Labels["route"]; got != raw {
		t.Errorf("round-tripped label = %q, want %q", got, raw)
	}
}
