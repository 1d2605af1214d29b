// Parallel partition scheduling. DISC-all's divide-and-conquer structure
// (Figure 2) produces independent partitions — processPartition touches
// only its own members, counting arrays and AVL scratch state — so the
// first two partitioning levels are fanned out onto a bounded worker pool.
//
// The serial algorithm assigns customers to partitions lazily: each
// customer sits in the bucket of its minimal contained frequent extension
// and is reassigned to the next one when that bucket is popped (Steps 2.2
// and 2.1.3.3 of Figure 2). Walked to completion, the reassignment chain
// visits exactly the frequent extensions the customer contains, so the
// bucket a partition eventually sees is precisely "the members containing
// its key". The parallel path computes that closure upfront
// (eagerBuckets), which makes every partition's input independent of the
// processing order and therefore schedulable: per-partition results and
// statistics are merged back in ascending key order, so a parallel run is
// deterministic and produces the same result set as the serial walk at
// any worker count.
package core

import (
	"sort"
	"sync"

	"github.com/disc-mining/disc/internal/checkpoint"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/seq"
)

// parallelSplitDepth is the number of partitioning levels fanned out onto
// the worker pool: splits at levels 0 and 1 schedule their level-1 and
// level-2 partitions concurrently. Deeper splits (Levels > 2 or Dynamic
// configurations) stay serial within their worker — by then the fan-out
// above them already saturates the pool.
const parallelSplitDepth = 2

// cancelCheckMask throttles cooperative cancellation checks inside the
// DISC round loop to one in 64, keeping ctx.Err() off the per-round hot
// path.
const cancelCheckMask = 63

// scheduler is the bounded worker pool of a parallel run. Its capacity is
// workers-1 because the submitting goroutine always works too (the inline
// fallback of do), so at most `workers` partition jobs run concurrently
// and submission never blocks — which also makes the nested fan-out
// (level-1 partitions scheduling level-2 partitions) deadlock-free.
//
// A nil *scheduler is valid and runs everything inline — the serial
// execution path of a checkpointed single-worker run.
type scheduler struct {
	workers  int
	sem      chan struct{}
	degraded *budgetState // when non-nil and degraded, stop spawning
}

func newScheduler(workers int) *scheduler {
	return &scheduler{workers: workers, sem: make(chan struct{}, workers-1)}
}

// do runs fn on its own goroutine when a worker slot is free, and inline
// on the caller otherwise. Spawned goroutines are tracked by wg; callers
// wait on it after submitting a whole batch. A degraded run (resource
// budget nearly exhausted) shrinks the pool by running everything inline
// from then on: in-flight workers finish, no new goroutines (and none of
// their private scratch state) are created.
func (s *scheduler) do(wg *sync.WaitGroup, fn func()) {
	if s == nil || s.degraded.isDegraded() {
		fn()
		return
	}
	select {
	case s.sem <- struct{}{}:
		wg.Add(1)
		go func() {
			defer func() {
				<-s.sem
				wg.Done()
			}()
			fn()
		}()
	default:
		fn()
	}
}

// progressTracker serializes Options.Progress callbacks and counts
// completed first-level partitions. Its closing contract: consumers see
// a final Done == Total event exactly once, whether the run completes,
// a partition errors, or the context is cancelled mid-run — so
// "finished" is always distinguishable from "abandoned".
type progressTracker struct {
	mu      sync.Mutex
	fn      mining.ProgressFunc
	done    int
	total   int
	workers int
	begun   bool
	closed  bool
}

// begin announces the first-level partition count.
func (p *progressTracker) begin(total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.total = total
	p.begun = true
	p.fn(mining.ProgressEvent{Stage: mining.StagePartitions, Done: 0, Total: total, Workers: p.workers})
}

// step reports one more completed first-level partition.
func (p *progressTracker) step() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.done++
	p.fn(mining.ProgressEvent{Stage: mining.StagePartitions, Done: p.done, Total: p.total, Workers: p.workers})
}

// finish closes the stream when the run ends. A run that stepped through
// every partition already emitted its Done == Total event and gets no
// duplicate; an interrupted run (error, cancellation, or a run that died
// before begin) gets the final event synthesized here. Idempotent; safe
// on a nil tracker (no Progress configured). The engine calls it after
// every worker has stopped, so no step can race in behind it.
func (p *progressTracker) finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	if p.begun && p.done == p.total {
		return
	}
	p.done = p.total
	p.fn(mining.ProgressEvent{Stage: mining.StagePartitions, Done: p.total, Total: p.total, Workers: p.workers})
}

// splitParallel is the scheduled counterpart of split: it computes every
// child partition's membership upfront and runs the qualifying partitions
// on the worker pool, each on a child engine with private result,
// statistics and scratch state. Children are merged back in ascending
// key order (list is sorted), so the outcome is deterministic and equal to
// the serial walk's.
//
// It is also the checkpoint boundary: at level 0 with a Checkpointer
// attached, partitions a prior run completed are restored instead of
// re-mined, and each freshly completed partition is recorded the moment
// its worker finishes. Restored and mined partitions interleave in the
// same ascending-key merge, so a resumed run's result set is
// byte-identical to a straight run's.
//
// Worker closures run under mining.Contain: a panic inside a partition
// (e.g. the findExtension invariant) surfaces as that partition's error
// — the run drains cleanly and Mine returns an *mining.InvariantError —
// instead of killing the process from a goroutine no caller can recover.
func (e *engine) splitParallel(key seq.Pattern, members []*seq.CustomerSeq, list []seq.Pattern, level int) error {
	buckets, err := e.eagerBuckets(key, members, list, level)
	if err != nil {
		return err
	}
	if level == 0 && e.prog != nil {
		e.prog.begin(len(list))
	}
	children := make([]*engine, len(list))
	restored := make([]*checkpoint.Partition, len(list))
	errs := make([]error, len(list))
	var wg sync.WaitGroup
	for i := range list {
		// The shard filter: a first-level partition hashing outside this
		// run's shard belongs to another worker. It is skipped before the
		// restore check, so a resumed shard consumes only its own
		// restored partitions even if the checkpoint carries foreign ones.
		if level == 0 && e.shard != nil && ShardOf(list[i], e.shard.Count) != e.shard.Index {
			if e.prog != nil {
				e.prog.step()
			}
			continue
		}
		if level == 0 && e.ckpt != nil {
			if p, ok := e.ckpt.restore(list[i]); ok {
				restored[i] = &p
				if e.prog != nil {
					e.prog.step()
				}
				continue
			}
		}
		if len(buckets[i]) < e.minSup {
			// Too few members survive reduction to host a frequent
			// (level+2)-sequence; the partition key itself was already
			// counted by the parent.
			if level == 0 && e.prog != nil {
				e.prog.step()
			}
			continue
		}
		i := i
		child := e.child()
		children[i] = child
		e.sched.do(&wg, func() {
			errs[i] = mining.Contain(site(list[i]), func() error {
				return child.processPartition(list[i], buckets[i], level+1)
			})
			child.releaseScratch()
			if errs[i] == nil && level == 0 && e.ckpt != nil {
				e.ckpt.record(list[i], child.res, &child.stats)
			}
			if level == 0 && e.prog != nil {
				e.prog.step()
			}
		})
	}
	wg.Wait()
	// Merge completed children and restored partitions in ascending key
	// order before reporting any error: an interrupted run keeps the
	// statistics of the work that did finish, and the merged order is
	// identical whether a partition was mined now or restored.
	var firstErr error
	for i := range list {
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
		if p := restored[i]; p != nil {
			for _, pc := range p.Patterns {
				e.res.Add(pc.Pattern, pc.Support)
			}
			st := statsFromCheckpoint(&p.Stats)
			e.stats.merge(&st)
			continue
		}
		if child := children[i]; child != nil && errs[i] == nil {
			e.stats.merge(&child.stats)
			e.res.Merge(child.res)
		}
	}
	return firstErr
}

// eagerBuckets assigns every member to the bucket of each frequent
// extension of key it contains — the transitive closure of Figure 2's
// reassignment walk, computed upfront so the partitions can be scheduled
// concurrently. Bucket i collects the members containing list[i] in member
// order, making each scheduled partition's input (and hence the merged
// output) independent of scheduling order. The closure walk is itself
// chunked across the pool; chunk results are concatenated in member
// order. Chunk goroutines run under mining.Contain — the findExtension
// invariant panic comes back as an error, never as a process crash.
// eagerBuckets' chunk goroutines read the submitting engine's arena flag
// tables concurrently but strictly read-only, and all of them finish
// (wg.Wait) before anything writes those tables again.
func (e *engine) eagerBuckets(key seq.Pattern, members []*seq.CustomerSeq, list []seq.Pattern, level int) ([][]*seq.CustomerSeq, error) {
	if e.obs != nil {
		defer e.obs.SpanUnder(e.cur, "eager_buckets").End()
	}
	freqI, freqS := e.extensionFlags(key, list, level)
	assign := func(members []*seq.CustomerSeq, buckets [][]*seq.CustomerSeq) {
		for _, cs := range members {
			x, no, ok := minFreqExtension(cs, key, freqI, freqS, 0, 0, false)
			for ok {
				i := findExtension(list, x, no)
				buckets[i] = append(buckets[i], cs)
				x, no, ok = minFreqExtension(cs, key, freqI, freqS, x, no, true)
			}
		}
	}
	const chunkMin = 256 // below this, chunking overhead beats the win
	if len(members) < chunkMin || e.sched == nil {
		buckets := make([][]*seq.CustomerSeq, len(list))
		// Inline on the submitting goroutine: a panic here is contained
		// by the enclosing Contain of the worker (or of run itself).
		assign(members, buckets)
		return buckets, nil
	}
	chunks := e.sched.workers
	if max := len(members) / chunkMin; chunks > max {
		chunks = max
	}
	per := (len(members) + chunks - 1) / chunks
	parts := make([][][]*seq.CustomerSeq, chunks)
	errs := make([]error, chunks)
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		c := c
		lo := c * per
		hi := lo + per
		if hi > len(members) {
			hi = len(members)
		}
		part := make([][]*seq.CustomerSeq, len(list))
		parts[c] = part
		e.sched.do(&wg, func() {
			errs[c] = mining.Contain(site(key), func() error {
				assign(members[lo:hi], part)
				return nil
			})
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	buckets := parts[0]
	for c := 1; c < chunks; c++ {
		for i := range buckets {
			buckets[i] = append(buckets[i], parts[c][i]...)
		}
	}
	return buckets, nil
}

// findExtension locates the extension pair (x, no) in the ascending
// frequent extension list. All entries share the same prefix, so the
// comparative order reduces to ComparePair on the last pair.
//
// A pair outside the list violates the closure invariant the scheduler
// is built on — a bug, reported by panicking. The panic is contained by
// the mining.Contain wrapper every execution path runs under (worker
// closures and the root walk), so it surfaces from Mine as an
// *mining.InvariantError carrying this message and the stack instead of
// crashing the process from a worker goroutine.
func findExtension(list []seq.Pattern, x seq.Item, no int32) int {
	i := sort.Search(len(list), func(i int) bool {
		return seq.ComparePair(list[i].LastItem(), list[i].LastTNo(), x, no) >= 0
	})
	if i == len(list) || list[i].LastItem() != x || list[i].LastTNo() != no {
		panic("core: extension chain produced a pair outside the frequent list")
	}
	return i
}
