package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFramePackage(t *testing.T) {
	for fn, want := range map[string]string{
		modulePrefix + "internal/core.(*engine).run":                                              "internal/core",
		modulePrefix + "internal/kmin.EnumExtensions":                                             "internal/kmin",
		modulePrefix + "internal/avl.(*Slab[go.shape.struct { " + modulePrefix + "x.T }]).insert": "internal/avl",
		modulePrefix + "internal/seq.NewCustomerSeq.func1":                                        "internal/seq",
		"runtime.gcBgMarkWorker":                                                                  "",
		"main.runMining":                                                                          "",
	} {
		if got := framePackage(fn); got != want {
			t.Errorf("framePackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCPUSharesAttribution(t *testing.T) {
	const (
		core = modulePrefix + "internal/core.(*engine).reduceMembers"
		seqC = modulePrefix + "internal/seq.NewCustomerSeq"
		seqI = modulePrefix + "internal/seq.NewItemset"
		kmin = modulePrefix + "internal/kmin.EnumExtensions"
	)
	samples := []stackSample{
		// seq's own time goes to its caller: core here, kmin below.
		{count: 3, frames: []string{seqI, seqC, core, "main.run"}},
		{count: 1, frames: []string{"runtime.mallocgc", seqC, core}},
		{count: 2, frames: []string{seqI, kmin, core}},
		{count: 2, frames: []string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}}, // no module frame
		{count: 2, frames: []string{kmin, core}},
	}
	flat, cum, total := cpuShares(samples, seqC)
	if total != 10 {
		t.Fatalf("total = %d", total)
	}
	want := map[string]float64{"core": 0.4, "kmin": 0.4, "gc": 0.2}
	for k, w := range want {
		if math.Abs(flat[k]-w) > 1e-12 {
			t.Errorf("flat[%s] = %g, want %g", k, flat[k], w)
		}
	}
	if len(flat) != len(want) {
		t.Errorf("flat = %v", flat)
	}
	if math.Abs(cum[seqC]-0.4) > 1e-12 {
		t.Errorf("cumulative NewCustomerSeq = %g, want 0.4", cum[seqC])
	}
}

// A real profile from the runtime decodes into samples whose stacks
// carry this test's busy function.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	busy(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, f := range s.frames {
			if f == "github.com/disc-mining/disc/perfbench.busy" || f == "main.busy" {
				found = true
			}
		}
	}
	if len(samples) == 0 || !found {
		t.Errorf("%d samples, busy frame found = %v", len(samples), found)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage must not parse")
	}
}

//go:noinline
func busy(d time.Duration) {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	sink = x
}

var sink int
