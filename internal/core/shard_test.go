package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/disc-mining/disc/internal/checkpoint"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/seq"
	"github.com/disc-mining/disc/internal/testutil"
)

func TestShardOfStableAndInRange(t *testing.T) {
	keys := []seq.Pattern{
		seq.Pattern{}.ExtendS(1), seq.Pattern{}.ExtendS(2),
		seq.Pattern{}.ExtendS(7), seq.Pattern{}.ExtendS(100),
	}
	for _, count := range []int{1, 2, 3, 8} {
		for _, k := range keys {
			s := ShardOf(k, count)
			if s < 0 || s >= count {
				t.Fatalf("ShardOf(%v, %d) = %d, out of range", k, count, s)
			}
			if again := ShardOf(k, count); again != s {
				t.Fatalf("ShardOf(%v, %d) unstable: %d then %d", k, count, s, again)
			}
		}
	}
	if ShardOf(keys[0], 0) != 0 || ShardOf(keys[0], 1) != 0 {
		t.Fatal("count <= 1 must map everything to shard 0")
	}
}

func TestShardSpecValidateRejectsBadSpecs(t *testing.T) {
	for _, bad := range []*ShardSpec{
		{Index: -1, Count: 2}, {Index: 2, Count: 2}, {Index: 0, Count: 0},
	} {
		m := &Miner{Opts: Options{BiLevel: true, Levels: 2, Shard: bad}}
		if _, err := m.Mine(testutil.Table1(), 2); err == nil {
			t.Errorf("shard %+v accepted, want error", bad)
		}
	}
	// A 1-of-1 shard is just a local run.
	m := &Miner{Opts: Options{BiLevel: true, Levels: 2, Shard: &ShardSpec{Index: 0, Count: 1}}}
	if _, err := m.Mine(testutil.Table1(), 2); err != nil {
		t.Fatalf("1-of-1 shard failed: %v", err)
	}
}

// TestShardUnionByteIdentical is the foundation the cluster protocol
// stands on: mining every shard separately (each recording its completed
// first-level partitions), folding all recorded partitions into one
// checkpoint, and finishing with a ResumeFrom assembly run must produce
// a result byte-identical to a straight local run — for both algorithms,
// including configurations whose policy would never split on its own
// (Levels=0, γ=0), at one and many workers, across shard counts. It also
// pins disjointness: no first-level partition is recorded by two shards.
func TestShardUnionByteIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	db := testutil.SkewedRandomDB(r, 90, 12, 6, 4)
	const minSup = 2
	for _, tc := range []struct {
		name string
		mk   func(Options) mining.ContextMiner
		base Options
	}{
		{"disc-all", func(o Options) mining.ContextMiner { return &Miner{Opts: o} },
			Options{BiLevel: true, Levels: 2}},
		{"disc-all-nolevels", func(o Options) mining.ContextMiner { return &Miner{Opts: o} },
			Options{BiLevel: true, Levels: 0}},
		{"dynamic", func(o Options) mining.ContextMiner { return &Dynamic{Opts: o} },
			Options{BiLevel: true, Gamma: 0.5}},
		{"dynamic-gamma0", func(o Options) mining.ContextMiner { return &Dynamic{Opts: o} },
			Options{BiLevel: true, Gamma: 0}},
	} {
		straight, err := tc.mk(tc.base).MineContext(context.Background(), db, minSup)
		if err != nil {
			t.Fatal(err)
		}
		want := renderSorted(straight)
		for _, workers := range []int{1, 4} {
			for _, shards := range []int{2, 3, 5} {
				seen := map[string]int{}
				var all []checkpoint.Partition
				for idx := 0; idx < shards; idx++ {
					opts := tc.base
					opts.Workers = workers
					opts.Checkpoint = NewCheckpointer()
					opts.Shard = &ShardSpec{Index: idx, Count: shards}
					if _, err := tc.mk(opts).MineContext(context.Background(), db, minSup); err != nil {
						t.Fatalf("%s workers=%d shard %d/%d: %v", tc.name, workers, idx, shards, err)
					}
					parts := opts.Checkpoint.File(tc.name, minSup, 0).Partitions
					for _, p := range parts {
						seen[p.Key.Key()]++
						if owner := ShardOf(p.Key, shards); owner != idx {
							t.Fatalf("%s shard %d/%d recorded partition %s owned by shard %d",
								tc.name, idx, shards, p.Key, owner)
						}
					}
					all = append(all, parts...)
				}
				for k, n := range seen {
					if n != 1 {
						t.Fatalf("%s workers=%d shards=%d: partition %s recorded %d times",
							tc.name, workers, shards, k, n)
					}
				}
				// The assembly run: resume from the union of the shards'
				// checkpoints. Every partition restores; the level-0 scan
				// and the ascending merge are all that executes locally.
				opts := tc.base
				opts.Workers = workers
				asm := ResumeFrom(&checkpoint.File{Algo: tc.name, MinSup: minSup, Partitions: all})
				opts.Checkpoint = asm
				res, err := tc.mk(opts).MineContext(context.Background(), db, minSup)
				if err != nil {
					t.Fatalf("%s workers=%d shards=%d: assembly run: %v", tc.name, workers, shards, err)
				}
				if got := renderSorted(res); got != want {
					t.Fatalf("%s workers=%d shards=%d: shard union differs from local run\n%s",
						tc.name, workers, shards, straight.Diff(res))
				}
				if len(all) > 0 && asm.Restored() != len(all) {
					t.Errorf("%s workers=%d shards=%d: assembly restored %d of %d shipped partitions",
						tc.name, workers, shards, asm.Restored(), len(all))
				}
			}
		}
	}
}

// TestShardedResumeSkipsForeignPartitions: a shard seeded with the whole
// job's checkpoint (the coordinator resends everything it has) restores
// only its own partitions and records nothing foreign.
func TestShardedResumeSkipsForeignPartitions(t *testing.T) {
	r := rand.New(rand.NewSource(94))
	db := testutil.SkewedRandomDB(r, 60, 10, 6, 4)
	const minSup, shards = 2, 3

	full := NewCheckpointer()
	m := &Miner{Opts: Options{BiLevel: true, Levels: 2, Checkpoint: full}}
	if _, err := m.Mine(db, minSup); err != nil {
		t.Fatal(err)
	}
	file := full.File("disc-all", minSup, 0)
	if len(file.Partitions) == 0 {
		t.Fatal("no partitions recorded")
	}

	cp := ResumeFrom(file)
	sm := &Miner{Opts: Options{BiLevel: true, Levels: 2,
		Checkpoint: cp, Shard: &ShardSpec{Index: 1, Count: shards}}}
	if _, err := sm.Mine(db, minSup); err != nil {
		t.Fatal(err)
	}
	for _, p := range cp.File("disc-all", minSup, 0).Partitions {
		if owner := ShardOf(p.Key, shards); owner != 1 {
			t.Fatalf("sharded resume emitted partition %s owned by shard %d", p.Key, owner)
		}
	}
}
