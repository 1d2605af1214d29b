package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := sample{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {10, 1}} {
		if got := s.percentile(c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := (sample{4, 1, 3, 2}).median(); got != 2.5 {
		t.Errorf("median of an even sample = %g, want 2.5", got)
	}
	if !math.IsNaN(sample(nil).percentile(50)) {
		t.Error("percentile of no samples must be NaN, so emit refuses it")
	}
}

func TestTailPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{39, 0, false}, // p75 leaves 9 beyond
		{40, 75, true}, // p75 leaves 10
		{99, 75, true}, // p90 leaves 9
		{100, 90, true},
		{199, 90, true}, // p95 leaves 9
		{200, 95, true},
		{1000, 99, true},
	} {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || p != c.want {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && beyond(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%g has only %d beyond", c.n, p, beyond(p, c.n))
		}
	}
}

func TestLatencyLinesFlagSparseTail(t *testing.T) {
	r := newReport()
	s := make(sample, 23)
	for i := range s {
		s[i] = float64(i + 1)
	}
	r.latencyLines("req_s", s, 90)
	out := strings.Join(r.lines, "\n")
	for _, want := range []string{"req_s.p50 = 12.0000 s (n=23)", "no tail percentile", "only 2 beyond"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRatioPrintsBothBases(t *testing.T) {
	q := ratio{"pseudo_over_disc", "pseudo_s", "disc_s", 4, 2.5, "s"}
	if q.value() != 1.6 {
		t.Fatalf("value = %g", q.value())
	}
	want := "pseudo_over_disc = 1.6000 (pseudo_s 4.0000 s / disc_s 2.5000 s)"
	if got := q.String(); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestEmitResultLine(t *testing.T) {
	r := newReport()
	r.set("a_s", 1.25, "s")
	r.op(nil)
	var buf bytes.Buffer
	if err := r.emit(&buf, []string{"a_s"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 1 || res.Failed != 0 || res.Metrics["a_s"] != (metric{1.25, "s"}) {
		t.Errorf("result line = %+v", res)
	}
	buf.Reset()
	if err := r.emit(&buf, []string{"a_s", "b_s"}); err == nil || strings.Contains(buf.String(), "{") {
		t.Errorf("an unmeasured metric must fail without a result line; err=%v out=%q", err, buf.String())
	}
}

// BENCHMARK.json and the names the program prints must not drift apart.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return strings.Join(out, ",")
	}
	if got, want := names(spec.Workloads), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads: BENCHMARK.json %s, program %s", got, want)
	}
	if got, want := names(spec.EndToEnd), strings.Join(endToEnd, ","); got != want {
		t.Errorf("end_to_end: BENCHMARK.json %s, program %s", got, want)
	}
	if got, want := names(spec.PerLayer), strings.Join(perLayer, ","); got != want {
		t.Errorf("per_layer: BENCHMARK.json %s, program %s", got, want)
	}
}

func TestAgreeFlagsTheOddResultOut(t *testing.T) {
	a, b := []byte("x support=2\n"), []byte("y support=2\n")
	best, errs := agree([][]byte{a, a, b}, []error{nil, nil, nil})
	if string(best) != string(a) || errs[0] != nil || errs[1] != nil || errs[2] == nil {
		t.Errorf("best=%q errs=%v", best, errs)
	}
	_, errs = agree([][]byte{a, b}, []error{nil, nil})
	if errs[0] == nil || errs[1] == nil {
		t.Errorf("two disagreeing results must both fail: %v", errs)
	}
	boom := errors.New("boom")
	_, errs = agree([][]byte{a, a, nil}, []error{nil, nil, boom})
	if errs[2] != boom || errs[0] != nil {
		t.Errorf("a failed operation keeps its own error: %v", errs)
	}
}
