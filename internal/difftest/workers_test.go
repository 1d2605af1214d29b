package difftest

import (
	"fmt"
	"testing"

	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/gen"
	"github.com/disc-mining/disc/internal/mining"
)

// workerCounts is the worker axis of the metamorphic worker check: serial,
// the smallest pool, and an odd wider pool. The widths are fixed rather
// than derived from GOMAXPROCS, so level-2 partitions that share one
// reduced-sequence slab are scheduled concurrently on every host.
var workerCounts = []int{1, 2, 7}

// checkWorkerInvariance mines db with DISC-all and Dynamic DISC-all at
// every workerCounts width and requires each algorithm's rendered result
// to be byte-identical across the widths. The worker count changes only
// how partitions are scheduled, never what they contain, so any
// difference is a scheduling or aliasing bug.
func checkWorkerInvariance(db mining.Database, minSup int) error {
	for _, alg := range []struct {
		name string
		mk   func(core.Options) mining.Miner
		opts core.Options
	}{
		{"disc-all", func(o core.Options) mining.Miner { return &core.Miner{Opts: o} },
			core.Options{BiLevel: true, Levels: 2}},
		{"dynamic-disc-all", func(o core.Options) mining.Miner { return &core.Dynamic{Opts: o} },
			core.Options{BiLevel: true, Gamma: 0.5}},
	} {
		var ref *mining.Result
		var want string
		for _, w := range workerCounts {
			opts := alg.opts
			opts.Workers = w
			res, err := alg.mk(opts).Mine(db, minSup)
			if err != nil {
				return fmt.Errorf("%s workers=%d: %v", alg.name, w, err)
			}
			if ref == nil {
				ref, want = res, render(res)
				continue
			}
			if render(res) != want {
				return fmt.Errorf("%s workers=%d result differs from workers=%d at minsup=%d:\n%s\ndatabase (%d customers, native format):\n%s",
					alg.name, w, workerCounts[0], minSup, ref.Diff(res), len(db), Counterexample(db))
			}
		}
	}
	return nil
}

// TestWorkerCountMetamorphic: across the differential grid (sampled in
// short mode) and one Figure 8-shaped database large enough to fan its
// level-2 partitions out onto the pool, DISC-all and Dynamic DISC-all
// render byte-identical results at every width of workerCounts.
func TestWorkerCountMetamorphic(t *testing.T) {
	cases := Grid()
	if testing.Short() {
		cases = faultGrid(t)
	}
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			db, minSup := gridDB(t, c)
			if err := checkWorkerInvariance(db, minSup); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("paper-defaults", func(t *testing.T) {
		t.Parallel()
		ncust := 600
		if testing.Short() {
			ncust = 250
		}
		db, err := gen.Generate(gen.PaperDefaults(ncust))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkWorkerInvariance(db, mining.AbsSupport(0.01, len(db))); err != nil {
			t.Fatal(err)
		}
	})
}
