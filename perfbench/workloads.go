package main

import (
	"math/rand"

	"github.com/disc-mining/disc/internal/gen"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/testutil"
)

// workload is one set of inputs the benchmark runs. why says what it
// stresses; predictions lists, before any change is measured, which
// end-to-end metric each layer metric should move on this workload and
// where it should barely move. A later claim of a gain is checked
// against these lines.
type workload struct {
	name        string
	why         string
	predictions []string
	run         func(*env) error
}

// Each workload's database contents are fixed; the seed draws how they
// are presented (customer order and CIDs, see present) and, on the
// service, the request schedule. A seed-drawn database would make the
// input itself the largest source of spread: one 400-customer
// small-alphabet database swings its mining cost by ±30% from seed to
// seed, and a run has time for a handful of mines.
const (
	// fig8Seed is the Quest generator seed of the Figure 8 database
	// (23,908 frequent sequences at δ=25).
	fig8Seed = 1
	// smallAlphabetSeed draws the 400-customer database of the
	// BenchmarkMine trajectory (bench_record_test.go, scale "medium").
	smallAlphabetSeed = 77
)

var workloads = []workload{
	{
		name: "fig8-sparse",
		why: "The paper's Figure 8 point and the ROADMAP headline: Quest Table 11 defaults, 10,000 customers, " +
			"minsup 0.0025 (δ=25). Reduction (seq.NewCustomerSeq alone ~27% of CPU), extension enumeration in " +
			"kmin (~30%) and GC (~9%) do most of the work; the DISC loop does little.",
		predictions: []string{
			"core.rounds, core.skip_ratio, core.kms_calls, core.ckms_calls, core.dropped -> barely move disc_s here (~12.8K rounds); they move it on small-alphabet",
			"core.partitions_l1, core.partitions_l2, core.patterns -> disc_s here (~8,047 level-2 partitions)",
			"core.par_speedup, core.arena_reuse_ratio -> disc_par_s here (1,000 level-1 partitions to schedule)",
			"runtime.alloc_mb, runtime.allocs_k, runtime.gc_cycles, runtime.gc_cpu_s -> disc_s and mem_peak_mb here (~347 MB, ~10.2M objects, 0.3-0.4 s GC CPU per mine)",
			"cpu.core, cpu.seq.NewCustomerSeq, cpu.gc -> disc_s here; cpu.kmin and cpu.avl barely",
			"counting.dedup_hits -> disc_s here; avl.rotations and avl.slab_grows barely",
			"data.parse_s, jobs.encode_s -> result_s by a few percent only",
		},
		run: func(e *env) error {
			return runMining(e, miningSpec{
				database: func() (mining.Database, error) {
					cfg := gen.PaperDefaults(10_000)
					cfg.Seed = fig8Seed
					return gen.Generate(cfg)
				},
				minSup: mining.AbsSupport(0.0025, 10_000),
			})
		},
	},
	{
		name: "small-alphabet",
		why: "Inverts fig8-sparse: 14 Zipf-skewed items, 400 customers, at most 8 transactions of at most 5 items, " +
			"δ=4, like motif mining over a small alphabet. The DISC loop is ~97% of CPU (kmin ~77%, avl ~12.5%), " +
			"reduction ~0%, and Pseudo wins ~6x.",
		predictions: []string{
			"core.rounds, core.skip_ratio, core.kms_calls, core.ckms_calls, core.dropped -> disc_s here (~230K rounds, ~866K CKMS calls per mine)",
			"core.partitions_l1, core.partitions_l2, core.patterns -> barely move disc_s here (~277 level-2 partitions); they move it on fig8-sparse",
			"core.par_speedup, core.arena_reuse_ratio -> barely move disc_par_s here (14 level-1 partitions)",
			"runtime.alloc_mb, runtime.allocs_k, runtime.gc_cycles, runtime.gc_cpu_s -> less than on fig8-sparse (~155 MB, ~2.1M objects, ~0.08 s GC CPU per mine)",
			"cpu.kmin, cpu.avl -> disc_s here; cpu.seq.NewCustomerSeq and cpu.gc barely (reduction ~0%)",
			"avl.rotations, avl.slab_grows -> disc_s here; counting.dedup_hits barely",
			"a reduction-layer gain must not show on this workload's disc_s",
		},
		run: func(e *env) error {
			return runMining(e, miningSpec{
				database: func() (mining.Database, error) {
					r := rand.New(rand.NewSource(smallAlphabetSeed))
					return testutil.SkewedRandomDB(r, 400, 14, 8, 5), nil
				},
				minSup: 4,
			})
		},
	},
	{
		name: "service-table13",
		why: "The POST /jobs path composed in process as cmd/discserve composes it, two closed-loop clients, " +
			"fresh dense Table 13 bodies (1,000 customers, δ=8) with about one in four resent byte for byte. " +
			"Parse, fingerprint, queue wait and encode do work only here; fresh mines and cache hits use " +
			"internal/jobs two ways.",
		predictions: []string{
			"data.parse_s -> alt_s (cache-hit latency; about 14 of about 65 ms); result_s (req_s.p50) by about 1%",
			"jobs.submit_s (fingerprint, dedup, admission) -> alt_s (cache-hit latency)",
			"jobs.queue_wait_s -> the tail of req_s and req_per_s",
			"jobs.run_s -> disc_par_s (its median), result_s (req_s.p50) and req_per_s",
			"jobs.encode_s -> alt_s (most of a hit); result_s by about 4%",
			"data.parse_s + jobs.encode_s is more than half of alt_s",
			"jobs.hit_ratio and jobs.result_mb describe the traffic; a change to them changes the workload, not the program",
			"core.*, runtime.*, cpu.* come from direct DISC-all mines of served bodies (the Table 13 point) -> disc_s",
		},
		run: runService,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}
