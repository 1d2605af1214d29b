package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/jobs"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/obs"
)

// encodeResult renders a result in the bytes the service and discmine
// emit; all cross-checks compare these bytes.
func encodeResult(res *mining.Result) ([]byte, error) {
	var buf bytes.Buffer
	err := jobs.WriteResult(&buf, res)
	return buf.Bytes(), err
}

func digest(b []byte) [32]byte { return sha256.Sum256(b) }

// profiler collects the CPU-profile samples of the calls it wraps.
type profiler struct {
	samples []stackSample
}

// around runs fn under the CPU profiler and keeps its samples.
func (p *profiler) around(fn func()) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	fn()
	pprof.StopCPUProfile()
	s, err := parseProfile(buf.Bytes())
	p.samples = append(p.samples, s...)
	return err
}

// settle collects garbage before a timed operation, outside its timing,
// so that no operation pays for the garbage an earlier one left behind.
func settle() { runtime.GC() }

// discRun is one DISC-all mine and what its layers reported.
type discRun struct {
	res      *mining.Result // dropped (see keep) before the run is stored
	patterns int
	stats    core.Stats
	secs     float64
	rt       [4]float64 // runtime/metrics deltas, in rtCounters order
	rec      [3]int64   // traced only: AVL rotations, slab grows, counting dedup hits
}

// mineDISC runs one DISC-all mine (core.New with the given worker
// count) as span name. A traced serial mine also runs under the CPU
// profiler with the engine's observer attached.
func mineDISC(e *env, traced bool, name string, parent, op int, db mining.Database, minSup, workers int) (discRun, error) {
	var d discRun
	var err error
	m := core.New()
	m.Opts.Workers = workers
	var o *obs.Observer
	if traced {
		o = obs.NewObserver()
		m.Opts.Obs = o
	}
	tr := e.tr
	if !traced {
		tr = nil
	}
	mine := func() {
		tr.call(name, parent, op, func(int) {
			before := readRuntime()
			t := time.Now()
			d.res, err = m.MineContext(context.Background(), db, minSup)
			d.secs = time.Since(t).Seconds()
			after := readRuntime()
			for i := range d.rt {
				d.rt[i] = after[i] - before[i]
			}
		})
	}
	if traced && workers == 1 {
		if perr := e.profiler.around(mine); perr != nil {
			return d, perr
		}
	} else {
		mine()
	}
	d.stats = m.LastStats()
	if d.res != nil {
		d.patterns = d.res.Len()
	}
	if o != nil {
		reg := o.Registry
		d.rec = [3]int64{
			reg.Counter("disc_avl_rotations_total", "").Value(),
			reg.Counter("disc_avl_slab_grows_total", "").Value(),
			reg.Counter("disc_counting_dedup_hits_total", "").Value(),
		}
	}
	return d, err
}

// keep returns d without its result, so that stored runs do not hold
// results alive across the rounds that follow.
func (d discRun) keep() discRun {
	d.res = nil
	return d
}

// discLayers accumulates the per-layer view of a run's DISC-all mines:
// the traced serial mines and the parallel mines.
type discLayers struct {
	serial []discRun
	par    []discRun
}

// report sets the engine, runtime, recorder and CPU metrics, as means
// per serial mine; speedup compares the untraced serial and parallel
// medians the workload measured.
func (l *discLayers) report(e *env, discS, discParS float64) {
	r := e.r
	var rounds, skips, kms, ckms, dropped, p1, p2, pats sample
	var allocMB, allocsK, gcs, gcCPU, rot, grows, dedup sample
	for _, d := range l.serial {
		s := d.stats
		rounds = append(rounds, float64(s.Rounds))
		skips = append(skips, float64(s.Skips))
		kms = append(kms, float64(s.KMSCalls))
		ckms = append(ckms, float64(s.CKMSCalls))
		dropped = append(dropped, float64(s.Dropped))
		p1 = append(p1, float64(level(s.PartitionsByLevel, 1)))
		p2 = append(p2, float64(level(s.PartitionsByLevel, 2)))
		pats = append(pats, float64(d.patterns))
		allocMB = append(allocMB, d.rt[0]/(1<<20))
		allocsK = append(allocsK, d.rt[1]/1e3)
		gcs = append(gcs, d.rt[2])
		gcCPU = append(gcCPU, d.rt[3])
		rot = append(rot, float64(d.rec[0]))
		grows = append(grows, float64(d.rec[1]))
		dedup = append(dedup, float64(d.rec[2]))
	}
	r.notef("traced serial DISC-all mines = %d, parallel mines = %d", len(l.serial), len(l.par))
	r.set("core.rounds", rounds.mean(), "count")
	r.set("core.skip_ratio", skips.mean()/rounds.mean(), "ratio")
	r.notef("%s", ratio{"core.skip_ratio", "skips", "rounds", skips.mean(), rounds.mean(), "count"})
	r.set("core.kms_calls", kms.mean(), "count")
	r.set("core.ckms_calls", ckms.mean(), "count")
	r.set("core.dropped", dropped.mean(), "count")
	r.set("core.partitions_l1", p1.mean(), "count")
	r.set("core.partitions_l2", p2.mean(), "count")
	r.set("core.patterns", pats.mean(), "count")
	speed := ratio{"core.par_speedup", "disc_s", "disc_par_s", discS, discParS, "s"}
	r.set("core.par_speedup", speed.value(), "ratio")
	r.notef("%s", speed)
	var acq, reuse float64
	for _, d := range l.par {
		acq += float64(d.stats.ArenaAcquires)
		reuse += float64(d.stats.ArenaReuses)
	}
	arena := ratio{"core.arena_reuse_ratio", "arena_reuses", "arena_acquires", reuse, acq, "count"}
	r.set("core.arena_reuse_ratio", arena.value(), "ratio")
	r.notef("%s", arena)
	r.set("runtime.alloc_mb", allocMB.mean(), "MB")
	r.set("runtime.allocs_k", allocsK.mean(), "count")
	r.set("runtime.gc_cycles", gcs.mean(), "count")
	r.set("runtime.gc_cpu_s", gcCPU.mean(), "s")
	r.set("avl.rotations", rot.mean(), "count")
	r.set("avl.slab_grows", grows.mean(), "count")
	r.set("counting.dedup_hits", dedup.mean(), "count")

	const ctor = modulePrefix + "internal/seq.NewCustomerSeq"
	flat, cum, total := cpuShares(e.profiler.samples, ctor)
	r.notef("cpu profile samples = %d (serial DISC-all mines only)", total)
	for _, pkg := range []string{"core", "kmin", "avl", "counting", "mining", "gc"} {
		r.set("cpu."+pkg, flat[pkg], "share")
	}
	r.set("cpu.seq.NewCustomerSeq", cum[ctor], "share")
	pkgs := make([]string, 0, len(flat))
	for pkg := range flat {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		r.notef("cpu share %s = %.4f", pkg, flat[pkg])
	}
}

func level(byLevel []int, l int) int {
	if l < len(byLevel) {
		return byLevel[l]
	}
	return 0
}
