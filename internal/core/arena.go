// Round arenas of the DISC-all engine. Every per-round and per-partition
// scratch structure — counting arrays, split trees, the k-sorted database
// tree, extension flag tables, k-minimum buffers, the reduced-sequence
// staging store — lives in one scratch bundle owned by an engine. A
// serial run keeps one bundle for its whole lifetime; a parallel run
// draws bundles from a sync.Pool shared by the engine tree, so live
// scratch memory stays proportional to workers × depth while steady-state
// rounds allocate nothing: trees reset by slab rewind, counting arrays by
// epoch stamping, flag tables by memclr, item buffers by re-slicing to
// length zero.
//
// Aliasing rules (all proven by the -race hammer in arena_test.go):
//
//   - A bundle belongs to exactly one engine at a time; engines of a
//     parallel run never share one (children draw their own).
//   - Split trees and flag tables are per recursion level: the split at
//     level L holds its tree and flags across the deeper recursion, which
//     only touches level L+1 structures. reduceMembers gets a dedicated
//     flag pair because it runs at level 1 while the level-0 split's
//     flags are live and before the level-1 split fills its own.
//   - One DISC tree suffices per bundle: discLoop is a leaf of the
//     partition recursion (discover never re-enters processPartition).
//   - The reduced-sequence staging store is written only by
//     reduceMembers and frozen before it returns: the frozen slabs escape
//     into the partition's recursion, the staging buffers never do.
//   - eagerBuckets chunk goroutines read the submitting engine's flag
//     tables concurrently but strictly read-only, bounded by the wg.Wait
//     in the same call.
package core

import (
	"sync"

	"github.com/disc-mining/disc/internal/avl"
	"github.com/disc-mining/disc/internal/counting"
	"github.com/disc-mining/disc/internal/seq"
)

// boolTable is a pair of per-item flag tables (i-form / s-form), the
// lookup structure minFreqExtension reads.
type boolTable struct {
	freqI, freqS []bool
}

// scratch is one engine's arena bundle. All fields are lazily grown and
// retained across partitions and rounds; nothing in it escapes into the
// mined result.
type scratch struct {
	maxItem seq.Item
	pointer bool
	avlRec  *avl.Recorder
	cntRec  *counting.Recorder

	arrays     []*counting.Array                              // per-depth counting arrays
	splitTrees []avl.Interface[seq.Pattern, *seq.CustomerSeq] // per-level split trees
	disc       avl.Interface[seq.Pattern, discEntry]          // the k-sorted database tree
	flags      []boolTable                                    // per-level extension flags
	redFlags   boolTable                                      // reduceMembers' dedicated pair
	reduced    seq.Store                                      // reduceMembers' staging buffers
	seen       []bool                                         // level-0 DistinctItems bitmap
	itemBuf    []seq.Item                                     // DistinctItems output buffer
	fi, fs     []seq.Item                                     // FrequentI/FrequentS output buffers
	membersBuf []*seq.CustomerSeq                             // discLoop's mutable member copy
}

func newScratch(maxItem seq.Item, pointer bool, avlRec *avl.Recorder, cntRec *counting.Recorder) *scratch {
	return &scratch{maxItem: maxItem, pointer: pointer, avlRec: avlRec, cntRec: cntRec}
}

// array returns the reset counting array for one recursion depth.
func (s *scratch) array(depth int) *counting.Array {
	for len(s.arrays) <= depth {
		s.arrays = append(s.arrays, nil)
	}
	a := s.arrays[depth]
	if a == nil {
		a = counting.New(s.maxItem).Observe(s.cntRec)
		s.arrays[depth] = a
	}
	a.Reset()
	return a
}

// splitTree returns the reset split tree for one recursion level.
func (s *scratch) splitTree(level int) avl.Interface[seq.Pattern, *seq.CustomerSeq] {
	for len(s.splitTrees) <= level {
		s.splitTrees = append(s.splitTrees, nil)
	}
	t := s.splitTrees[level]
	if t == nil {
		t = newTree[*seq.CustomerSeq](s.pointer, s.avlRec)
		s.splitTrees[level] = t
	}
	t.Reset()
	return t
}

// discTree returns the reset k-sorted database tree.
func (s *scratch) discTree() avl.Interface[seq.Pattern, discEntry] {
	if s.disc == nil {
		s.disc = newTree[discEntry](s.pointer, s.avlRec)
	}
	s.disc.Reset()
	return s.disc
}

// newTree builds one locative tree: the slab implementation by default,
// the seed pointer implementation under Options.PointerTree.
func newTree[V any](pointer bool, rec *avl.Recorder) avl.Interface[seq.Pattern, V] {
	if pointer {
		return avl.NewPointer[seq.Pattern, V](seq.Compare).Observe(rec)
	}
	return avl.New[seq.Pattern, V](seq.Compare).Observe(rec)
}

// levelFlags returns the cleared flag pair for one recursion level.
func (s *scratch) levelFlags(level int) (freqI, freqS []bool) {
	for len(s.flags) <= level {
		s.flags = append(s.flags, boolTable{})
	}
	return s.flags[level].cleared(s.maxItem)
}

// reduceFlags returns the cleared flag pair reserved for reduceMembers.
func (s *scratch) reduceFlags() (freqI, freqS []bool) {
	return s.redFlags.cleared(s.maxItem)
}

func (t *boolTable) cleared(maxItem seq.Item) (freqI, freqS []bool) {
	if len(t.freqI) < int(maxItem)+1 {
		t.freqI = make([]bool, maxItem+1)
		t.freqS = make([]bool, maxItem+1)
	} else {
		clear(t.freqI)
		clear(t.freqS)
	}
	return t.freqI, t.freqS
}

// seenBitmap returns the cleared level-0 distinct-items bitmap.
func (s *scratch) seenBitmap() []bool {
	if len(s.seen) < int(s.maxItem)+1 {
		s.seen = make([]bool, s.maxItem+1)
	}
	// DistinctItems leaves the bitmap clean (it unsets what it set), so no
	// clear here; newly grown bitmaps start zeroed.
	return s.seen
}

// release drops round-local references (pattern keys and customer
// pointers in trees and buffers) while keeping every slab and capacity, so
// a pooled bundle neither pins the previous partition's reduced slab nor
// re-allocates. It also rewinds the reduction staging, which a partition
// that failed or panicked mid-reduction leaves half-built.
func (s *scratch) release() {
	for _, t := range s.splitTrees {
		if t != nil {
			t.Reset()
		}
	}
	if s.disc != nil {
		s.disc.Reset()
	}
	clear(s.membersBuf)
	s.membersBuf = s.membersBuf[:0]
	s.reduced.Reset()
}

// MemBytes reports the bundle's total slab footprint: exact for the slab
// trees and counting arrays, estimated for the pointer-tree fallback. The
// budget accounting reads it at partition boundaries.
func (s *scratch) MemBytes() int64 {
	var total int64
	for _, a := range s.arrays {
		if a != nil {
			total += a.MemBytes()
		}
	}
	for _, t := range s.splitTrees {
		if t != nil {
			total += t.MemBytes()
		}
	}
	if s.disc != nil {
		total += s.disc.MemBytes()
	}
	perFlag := int64(len(s.seen))
	for _, f := range s.flags {
		perFlag += int64(cap(f.freqI) + cap(f.freqS))
	}
	perFlag += int64(cap(s.redFlags.freqI) + cap(s.redFlags.freqS))
	total += perFlag
	total += int64(cap(s.itemBuf)+cap(s.fi)+cap(s.fs)) * 4
	total += int64(cap(s.membersBuf)) * 8
	total += s.reduced.MemBytes()
	return total
}

// scratchPool shares arena bundles across the partition workers of one
// run. All bundles of a pool share the run-wide recorders and tree
// implementation, so a recycled bundle is indistinguishable from a fresh
// one apart from its warm slabs.
type scratchPool struct {
	maxItem seq.Item
	pointer bool
	avlRec  *avl.Recorder
	cntRec  *counting.Recorder
	p       sync.Pool
}

// get draws a bundle; reused reports whether it came back warm from a
// finished worker (an arena reuse, counted in Stats).
func (sp *scratchPool) get() (s *scratch, reused bool) {
	if s, ok := sp.p.Get().(*scratch); ok {
		return s, true
	}
	return newScratch(sp.maxItem, sp.pointer, sp.avlRec, sp.cntRec), false
}

func (sp *scratchPool) put(s *scratch) {
	s.release()
	sp.p.Put(s)
}

// scratch returns the engine's arena bundle, drawing one lazily from the
// run's pool (parallel) or building a private one (serial).
func (e *engine) scratch() *scratch {
	if e.scr == nil {
		e.stats.ArenaAcquires++
		if e.pool != nil {
			var reused bool
			e.scr, reused = e.pool.get()
			if reused {
				e.stats.ArenaReuses++
			}
		} else {
			e.scr = newScratch(e.maxItem, e.opts.PointerTree, e.avlRec, e.cntRec)
		}
	}
	return e.scr
}

// releaseScratch returns the engine's bundle to the run's pool (or to the
// garbage collector for a serial run). Called when a partition worker
// finishes and at the end of the run.
func (e *engine) releaseScratch() {
	if e.scr == nil {
		return
	}
	if e.pool != nil {
		e.pool.put(e.scr)
	}
	e.scr = nil
}

// scratchBytes is the nil-safe footprint read for the budget sampler.
func (e *engine) scratchBytes() int64 {
	if e.scr == nil {
		return 0
	}
	return e.scr.MemBytes()
}
