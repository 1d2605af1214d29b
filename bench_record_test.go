// The recorded benchmark trajectory. BenchmarkMine is the canonical
// engine benchmark at three database scales; TestBenchRecord runs it
// programmatically at Workers 1 and writes the measurements to a
// BENCH_pr<N>.json file at the repo root — the machine-readable perf
// history each engine change appends to — comparing them with the
// highest-numbered record already there. See EXPERIMENTS.md ("Recorded
// benchmark trajectory") for the file format.
//
//	make bench-record            # writes BENCH_pr13.json
//	go test -bench BenchmarkMine # the same engine, human-readable
package disc

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"github.com/disc-mining/disc/internal/testutil"
)

// benchScale is one point of the trajectory: an engine-dominated skewed
// workload (small item alphabet, deep partition recursion, many DISC
// rounds — the same family as the instrumentation-overhead guard) at a
// fixed customer count. The paper-figure workloads in bench_test.go
// measure end-to-end mining where result-set construction dominates;
// this trajectory isolates the engine core, which is what the slab tree
// and round arenas change.
type benchScale struct {
	Name  string
	NCust int
}

var benchScales = []benchScale{
	{"small", 200},
	{"medium", 400},
	{"large", 600},
}

const scaleMinSup = 4

var (
	scaleOnce sync.Once
	scaleDBs  map[string]Database
)

func scaleWorkloads(tb testing.TB) map[string]Database {
	tb.Helper()
	scaleOnce.Do(func() {
		scaleDBs = make(map[string]Database, len(benchScales))
		for _, sc := range benchScales {
			r := rand.New(rand.NewSource(77))
			scaleDBs[sc.Name] = Database(testutil.SkewedRandomDB(r, sc.NCust, 14, 8, 5))
		}
	})
	return scaleDBs
}

// BenchmarkMine measures the default engine (slab tree + round arenas)
// at the three trajectory scales.
func BenchmarkMine(b *testing.B) {
	dbs := scaleWorkloads(b)
	for _, sc := range benchScales {
		db := dbs[sc.Name]
		b.Run(sc.Name, func(b *testing.B) {
			benchMiner(b, NewDISCAll(DefaultOptions()), db, scaleMinSup)
		})
	}
}

// engineMeasure is one scale's measurement of the engine.
type engineMeasure struct {
	NsPerOp        int64   `json:"ns_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	Patterns       int     `json:"patterns"`
	PatternsPerSec float64 `json:"patterns_per_sec"`
}

// recordEngine is the engines key every record stores its measurement
// under. BENCH_pr6.json also holds a "pointer" engine and a delta_pct
// block; the decoder ignores both, so one benchFile type reads every
// committed record.
const recordEngine = "slab"

// scaleRecord is one scale's workload point and measurement.
type scaleRecord struct {
	Scale   string                   `json:"scale"`
	NCust   int                      `json:"ncust"`
	MinSup  int                      `json:"minsup"`
	Engines map[string]engineMeasure `json:"engines"`
}

// benchFile is the BENCH_*.json schema (documented in EXPERIMENTS.md).
type benchFile struct {
	PR        int           `json:"pr"`
	Benchmark string        `json:"benchmark"`
	Workload  string        `json:"workload"`
	Go        string        `json:"go"`
	MaxProcs  int           `json:"gomaxprocs"`
	Workers   int           `json:"workers"`
	Scales    []scaleRecord `json:"scales"`
}

// recordName matches a committed trajectory record and captures its
// number.
var recordName = regexp.MustCompile(`^BENCH_pr(\d+)\.json$`)

// recordNumber returns the N of a BENCH_pr<N>.json path, or 0 for any
// other name.
func recordNumber(path string) int {
	m := recordName.FindStringSubmatch(filepath.Base(path))
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// latestRecord returns the path of the highest-numbered BENCH_pr<N>.json
// in dir other than exclude, or "" when there is none.
func latestRecord(dir, exclude string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_pr*.json"))
	if err != nil {
		return "", err
	}
	ex, err := filepath.Abs(exclude)
	if err != nil {
		return "", err
	}
	best, bestN := "", 0
	for _, p := range paths {
		abs, err := filepath.Abs(p)
		if err != nil {
			return "", err
		}
		if n := recordNumber(p); n > bestN && abs != ex {
			best, bestN = p, n
		}
	}
	return best, nil
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec benchFile
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// Gate bounds against the baseline record. At Workers 1, allocs/op and
// B/op barely move between runs — on one host, at GOMAXPROCS 1 and 2,
// repeats spread by tens of allocations in millions and by under 0.25%
// of the bytes — so they are gated tightly. ns/op is recorded and
// reported as a delta but never gated: it measures the host as much as
// the code (five recordings of the medium scale on one 2-vCPU VM read
// 1.68–2.38 s, against 1.93 s in BENCH_pr6.json from another machine),
// so a cross-host bound would fail on hardware and noise. The paired ns
// check for this database is the benchmark's small-alphabet disc_s,
// which mines the same seed-77 400-customer point at Workers 1 on both
// sides of a change on one host.
const (
	maxAllocsGrowth = 0.001 // allocs/op ≤ baseline + 0.1%
	maxBytesGrowth  = 0.01  // B/op ≤ baseline + 1%
)

// compareRecords checks cur against base scale by scale and returns one
// message per violated bound: allocs/op or B/op above the baseline by
// more than the gate allows, a pattern count that differs (the mined
// result must not change), or a scale the baseline lacks.
func compareRecords(base, cur *benchFile) []string {
	var problems []string
	for _, sc := range cur.Scales {
		m := sc.Engines[recordEngine]
		b, ok := baselineMeasure(base, sc.Scale)
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: baseline record has no %s measurement", sc.Scale, recordEngine))
			continue
		}
		if m.Patterns != b.Patterns {
			problems = append(problems, fmt.Sprintf("%s: %d patterns, baseline %d", sc.Scale, m.Patterns, b.Patterns))
		}
		if float64(m.AllocsPerOp) > float64(b.AllocsPerOp)*(1+maxAllocsGrowth) {
			problems = append(problems, fmt.Sprintf("%s: %d allocs/op exceeds baseline %d by %+.2f%% (bound +%.1f%%)",
				sc.Scale, m.AllocsPerOp, b.AllocsPerOp, pctDelta(m.AllocsPerOp, b.AllocsPerOp), maxAllocsGrowth*100))
		}
		if float64(m.BytesPerOp) > float64(b.BytesPerOp)*(1+maxBytesGrowth) {
			problems = append(problems, fmt.Sprintf("%s: %d B/op exceeds baseline %d by %+.2f%% (bound +%.0f%%)",
				sc.Scale, m.BytesPerOp, b.BytesPerOp, pctDelta(m.BytesPerOp, b.BytesPerOp), maxBytesGrowth*100))
		}
	}
	return problems
}

// baselineMeasure returns base's measurement at the named scale.
func baselineMeasure(base *benchFile, scale string) (engineMeasure, bool) {
	for _, sc := range base.Scales {
		if sc.Scale == scale {
			m, ok := sc.Engines[recordEngine]
			return m, ok
		}
	}
	return engineMeasure{}, false
}

// TestBenchRecord runs BenchmarkMine at Workers 1 at every trajectory
// scale and writes the JSON record to the path named by
// DISC_BENCH_RECORD; its pr field is the N of a BENCH_pr<N>.json name (0
// for any other name). The baseline is the highest-numbered
// BENCH_pr<N>.json at the repo root other than the output file.
// DISC_BENCH_SUMMARY additionally appends a markdown table of the
// measurements and their deltas against the baseline (the CI job points
// it at $GITHUB_STEP_SUMMARY), and DISC_BENCH_ENFORCE=1 turns every
// compareRecords violation into a test failure.
func TestBenchRecord(t *testing.T) {
	outPath := os.Getenv("DISC_BENCH_RECORD")
	if outPath == "" {
		t.Skip("set DISC_BENCH_RECORD=<path> to record the benchmark trajectory")
	}
	enforce := os.Getenv("DISC_BENCH_ENFORCE") != ""
	var base *benchFile
	basePath, err := latestRecord(".", outPath)
	if err != nil {
		t.Fatal(err)
	}
	if basePath != "" {
		if base, err = readBenchFile(basePath); err != nil {
			t.Fatal(err)
		}
		t.Logf("baseline: %s", basePath)
	} else if enforce {
		t.Fatal("DISC_BENCH_ENFORCE is set but no BENCH_pr<N>.json baseline exists")
	}
	dbs := scaleWorkloads(t)
	// One worker: the allocation figures of a parallel run depend on how
	// partitions land on pooled arena bundles, and so on the core count.
	opts := DefaultOptions()
	opts.Workers = 1
	record := benchFile{
		PR:        recordNumber(outPath),
		Benchmark: "BenchmarkMine",
		Workload:  "testutil.SkewedRandomDB, seed 77, nitems 14, minsup 4",
		Go:        runtime.Version(),
		MaxProcs:  runtime.GOMAXPROCS(0),
		Workers:   opts.Workers,
	}
	for _, sc := range benchScales {
		db := dbs[sc.Name]
		var patterns int
		// Best of three: at these op times a single testing.Benchmark run
		// measures one iteration, so the clock reading carries scheduler
		// noise; the minimum damps it. allocs/op and B/op barely move
		// between runs, so the fastest run's figures stand for all.
		var m engineMeasure
		for rep := 0; rep < 3; rep++ {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := NewDISCAll(opts).Mine(db, scaleMinSup)
					if err != nil {
						b.Fatal(err)
					}
					patterns = res.Len()
				}
			})
			if m.NsPerOp == 0 || r.NsPerOp() < m.NsPerOp {
				m.NsPerOp = r.NsPerOp()
				m.AllocsPerOp = r.AllocsPerOp()
				m.BytesPerOp = r.AllocedBytesPerOp()
			}
		}
		m.Patterns = patterns
		if m.NsPerOp > 0 {
			m.PatternsPerSec = float64(patterns) / (float64(m.NsPerOp) / 1e9)
		}
		t.Logf("%s: %d ns/op, %d allocs/op, %d B/op, %d patterns",
			sc.Name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp, patterns)
		record.Scales = append(record.Scales, scaleRecord{
			Scale: sc.Name, NCust: sc.NCust, MinSup: scaleMinSup,
			Engines: map[string]engineMeasure{recordEngine: m},
		})
	}
	if base != nil {
		for _, p := range compareRecords(base, &record) {
			if enforce {
				t.Error(p)
			} else {
				t.Log(p)
			}
		}
	}
	data, err := json.MarshalIndent(&record, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", outPath)
	if sumPath := os.Getenv("DISC_BENCH_SUMMARY"); sumPath != "" {
		if err := writeBenchSummary(sumPath, &record, base); err != nil {
			t.Fatal(err)
		}
	}
}

func pctDelta(newV, oldV int64) float64 {
	if oldV == 0 {
		return 0
	}
	return (float64(newV)/float64(oldV) - 1) * 100
}

// writeBenchSummary appends a markdown table of rec's measurements to
// path, each with its delta against base (the benchstat-style step of
// the CI bench job); base may be nil. Only the allocs/op and B/op deltas
// are gated, see compareRecords.
func writeBenchSummary(path string, rec, base *benchFile) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	baseName := "none"
	if base != nil {
		baseName = fmt.Sprintf("BENCH_pr%d.json (%s, GOMAXPROCS=%d)", base.PR, base.Go, base.MaxProcs)
	}
	fmt.Fprintf(f, "## %s at Workers %d vs %s\n\n", rec.Benchmark, rec.Workers, baseName)
	fmt.Fprintf(f, "Workload: %s (%s, GOMAXPROCS=%d). ns/op is reported, not gated.\n\n", rec.Workload, rec.Go, rec.MaxProcs)
	fmt.Fprintln(f, "| scale | ns/op | Δ ns | allocs/op | Δ allocs | B/op | Δ B | patterns/s |")
	fmt.Fprintln(f, "|---|---:|---:|---:|---:|---:|---:|---:|")
	for _, sc := range rec.Scales {
		m := sc.Engines[recordEngine]
		delta := func(cur, old int64) string {
			if base == nil || old == 0 {
				return ""
			}
			return fmt.Sprintf("%+.1f%%", pctDelta(cur, old))
		}
		var b engineMeasure
		if base != nil {
			b, _ = baselineMeasure(base, sc.Scale)
		}
		fmt.Fprintf(f, "| %s | %d | %s | %d | %s | %d | %s | %.0f |\n",
			sc.Scale, m.NsPerOp, delta(m.NsPerOp, b.NsPerOp), m.AllocsPerOp, delta(m.AllocsPerOp, b.AllocsPerOp),
			m.BytesPerOp, delta(m.BytesPerOp, b.BytesPerOp), m.PatternsPerSec)
	}
	fmt.Fprintln(f)
	return nil
}

// TestCompareRecords pins the trajectory gate on in-memory records: a
// current record may not allocate more than the baseline beyond the
// bounds, while ns/op never fails it.
func TestCompareRecords(t *testing.T) {
	rec := func(ns, allocs, bytes int64, patterns int) *benchFile {
		return &benchFile{Scales: []scaleRecord{{Scale: "medium", Engines: map[string]engineMeasure{
			recordEngine: {NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes, Patterns: patterns},
		}}}}
	}
	cur := rec(2_000_000_000, 2_040_132, 154_688_776, 115560)
	for _, c := range []struct {
		name string
		base *benchFile
		fail bool
	}{
		{"equal", rec(2_000_000_000, 2_040_132, 154_688_776, 115560), false},
		{"slower host is not gated", rec(1_000_000_000, 2_040_132, 154_688_776, 115560), false},
		{"allocs within 0.1%", rec(2_000_000_000, 2_038_500, 154_688_776, 115560), false},
		{"B/op within 1%", rec(2_000_000_000, 2_040_132, 153_200_000, 115560), false},
		{"baseline with fewer allocs", rec(2_000_000_000, 2_030_000, 154_688_776, 115560), true},
		{"baseline with fewer bytes", rec(2_000_000_000, 2_040_132, 150_000_000, 115560), true},
		{"pattern count differs", rec(2_000_000_000, 2_040_132, 154_688_776, 115559), true},
		{"baseline lacks the scale", &benchFile{}, true},
	} {
		problems := compareRecords(c.base, cur)
		if got := len(problems) > 0; got != c.fail {
			t.Errorf("%s: problems %q, want failure %v", c.name, problems, c.fail)
		}
	}
}

// TestLatestRecordPicksHighest: the baseline is the highest-numbered
// BENCH_pr<N>.json (numerically, not lexically) other than the output.
func TestLatestRecordPicksHighest(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_pr6.json", "BENCH_pr9.json", "BENCH_pr13.json", "BENCH_draft.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for out, want := range map[string]string{
		"elsewhere.json":  "BENCH_pr13.json",
		"BENCH_pr13.json": "BENCH_pr9.json",
		"BENCH_pr14.json": "BENCH_pr13.json",
	} {
		got, err := latestRecord(dir, filepath.Join(dir, out))
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(got) != want {
			t.Errorf("output %s: baseline %s, want %s", out, got, want)
		}
	}
	if got, err := latestRecord(t.TempDir(), "x.json"); err != nil || got != "" {
		t.Errorf("empty dir: baseline %q, %v", got, err)
	}
}

// TestCommittedRecordsDecode: every committed record, old schema or new,
// reads through the one decoder with a measurement at every scale.
func TestCommittedRecordsDecode(t *testing.T) {
	paths, err := filepath.Glob("BENCH_pr*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed records: %v", err)
	}
	for _, p := range paths {
		rec, err := readBenchFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if rec.PR != recordNumber(p) {
			t.Errorf("%s: pr field %d", p, rec.PR)
		}
		for _, sc := range benchScales {
			if m, ok := baselineMeasure(rec, sc.Name); !ok || m.AllocsPerOp == 0 || m.Patterns == 0 {
				t.Errorf("%s: no %s measurement at scale %s", p, recordEngine, sc.Name)
			}
		}
	}
}
