package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what one run measured: every metric by name, the
// human-readable lines printed before the result, and the operation
// tally behind failed_ratio.
type report struct {
	metrics   map[string]metric
	lines     []string
	attempted int
	failed    int
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// op counts one attempted operation; a failed one is reported on stderr
// and counts against failed_ratio.
func (r *report) op(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
		return false
	}
	return true
}

// sample is a set of measured values, in seconds unless stated.
type sample []float64

func (s sample) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// median is the middle value, or the mean of the two middle values.
func (s sample) median() float64 {
	c := s.sorted()
	n := len(c)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return c[n/2]
	default:
		return (c[n/2-1] + c[n/2]) / 2
	}
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// rank is the 1-based nearest-rank position of the p-th percentile
// among n samples.
func rank(p float64, n int) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100).
func (s sample) percentile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s.sorted()[rank(p, len(s))-1]
}

// beyond is the number of samples that lie above the p-th percentile.
func beyond(p float64, n int) int { return n - rank(p, n) }

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailLevels are the tail percentiles considered, highest first.
var tailLevels = []float64{99, 95, 90, 75}

// tailPercentile picks the highest tail level with at least minBeyond
// samples beyond it among n, or reports false when even p75 lacks them.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLevels {
		if beyond(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// latencyLines prints a latency sample's median and its tail: the
// highest percentile with at least ten samples beyond it, plus any
// requested level with its (possibly too small) beyond count.
func (r *report) latencyLines(name string, s sample, also ...float64) {
	n := len(s)
	r.notef("%s.p50 = %.4f s (n=%d)", name, s.median(), n)
	if p, ok := tailPercentile(n); ok {
		r.notef("%s.p%g = %.4f s (n=%d, %d beyond)", name, p, s.percentile(p), n, beyond(p, n))
	} else {
		r.notef("%s: no tail percentile has %d samples beyond it (n=%d)", name, minBeyond, n)
	}
	for _, p := range also {
		if n > 0 && beyond(p, n) < minBeyond {
			r.notef("%s.p%g = %.4f s (n=%d, only %d beyond: below the %d-beyond rule)", name, p, s.percentile(p), n, beyond(p, n), minBeyond)
		}
	}
}

// ratio is a quotient reported together with both of its bases.
type ratio struct {
	name             string
	numName, denName string
	num, den         float64
	unit             string // unit of num and den
}

func (q ratio) value() float64 { return q.num / q.den }

func (q ratio) String() string {
	return fmt.Sprintf("%s = %.4f (%s %.4f %s / %s %.4f %s)",
		q.name, q.value(), q.numName, q.num, q.unit, q.denName, q.den, q.unit)
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit prints every note and every selected metric, then the result
// line. It fails when a selected metric was not measured.
func (r *report) emit(w io.Writer, names []string) error {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, n)
			continue
		}
		out.Metrics[n] = m
		fmt.Fprintf(w, "%s = %.6g %s\n", n, m.Value, m.Unit)
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if r.attempted > 0 {
		fmt.Fprintf(w, "failed_ratio = %.4f (%d failed / %d attempted)\n", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
