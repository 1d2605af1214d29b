// Command perfbench is the repository's benchmark. It runs one workload
// from a seed, checks every result it produces, and prints every metric
// by name with its unit, ending with one JSON result line:
//
//	bash perfbench/run.sh --workload fig8-sparse --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it reports the per-layer metrics of a traced run (spans
// around every call into a layer, a CPU profile of each serial DISC-all
// mine, the engine's observability recorders) and writes the spans to
// --work-dir. The workloads, their reasons and the per-layer predictions
// are in workloads.go; README.md maps the metric names onto each
// workload.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// env is what a workload run needs: its seed and time budget, whether it
// is the traced run, and where it reports.
type env struct {
	seed     int64
	seconds  time.Duration
	tr       *tracer // nil in the untraced run
	nproc    int
	workDir  string
	r        *report
	profiler *profiler // nil in the untraced run
}

func (e *env) traced() bool { return e.tr != nil }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every input of the run is generated from")
	seconds := fs.Int("seconds", 30, "measurement time of the run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = untraced run reporting end-to-end metrics")
	workDir := fs.String("work-dir", ".bench_build/perfbench", "directory for checkpoints and span files, relative to the working directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	e := &env{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		nproc: runtime.NumCPU(), workDir: *workDir, r: newReport(),
	}
	if *trace == 1 {
		e.tr = newTracer()
		e.profiler = &profiler{}
	}
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return err
	}
	e.r.notef("workload = %s", w.name)
	e.r.notef("seed = %d", e.seed)
	e.r.notef("go = %s, GOMAXPROCS = %d, nproc = %d, trace = %d, seconds = %d",
		runtime.Version(), runtime.GOMAXPROCS(0), e.nproc, *trace, *seconds)

	if err := w.run(e); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	e.r.set("mem_peak_mb", peak, "MB")

	names := endToEnd
	if e.traced() {
		names = perLayer
		e.tr.selfTimeLines(e.r)
		path, err := e.tr.write(e.workDir, fmt.Sprintf("spans-%s-%d.json", w.name, e.seed))
		if err != nil {
			return err
		}
		e.r.notef("spans written to %s", path)
	}
	if err := e.r.emit(stdout, names); err != nil {
		return err
	}
	if e.r.failed > 0 {
		return fmt.Errorf("%d of %d operations failed or returned a wrong result", e.r.failed, e.r.attempted)
	}
	return nil
}

// endToEnd and perLayer are the metric names of BENCHMARK.json, in its
// order; a test keeps the two in step.
var endToEnd = []string{
	"setup_s", "mem_peak_mb", "disc_s", "disc_par_s", "result_s", "alt_s",
}

var perLayer = []string{
	"core.rounds", "core.skip_ratio", "core.kms_calls", "core.ckms_calls", "core.dropped",
	"core.partitions_l1", "core.partitions_l2", "core.patterns",
	"core.par_speedup", "core.arena_reuse_ratio",
	"runtime.alloc_mb", "runtime.allocs_k", "runtime.gc_cycles", "runtime.gc_cpu_s",
	"cpu.core", "cpu.kmin", "cpu.avl", "cpu.counting", "cpu.mining", "cpu.gc", "cpu.seq.NewCustomerSeq",
	"avl.rotations", "avl.slab_grows", "counting.dedup_hits",
	"data.parse_s",
	"jobs.submit_s", "jobs.queue_wait_s", "jobs.run_s", "jobs.encode_s", "jobs.hit_ratio", "jobs.result_mb",
	"trace.overhead",
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak memory: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak memory: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak memory: no VmHWM in /proc/self/status")
}

// rtCounters are the runtime/metrics read around each serial DISC-all
// mine: bytes and objects allocated, GC cycles, GC CPU time.
var rtCounters = []string{
	"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() [4]float64 {
	s := make([]metrics.Sample, len(rtCounters))
	for i, n := range rtCounters {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [4]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}
