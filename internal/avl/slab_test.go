package avl

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestTreeMatchesOracle is the differential property test for the tree:
// a random mix of insert / pop-min / reset operations is applied to the
// Tree and to a sorted-slice oracle of (key, value) entries, and after
// every operation the two must agree on Size, Min, Select at every rank
// and, through an in-order walk of the slab, on every bucket's values in
// insertion order.
func TestTreeMatchesOracle(t *testing.T) {
	type entry struct{ k, v int }
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New[int, int](func(a, b int) int { return a - b })
		var model []entry // sorted by key; equal keys in insertion order
		agree := func() bool {
			if tr.Size() != len(model) {
				return false
			}
			k, vals, ok := tr.Min()
			if ok != (len(model) > 0) || (ok && (k != model[0].k || len(vals) == 0)) {
				return false
			}
			for rk := 1; rk <= len(model); rk++ {
				a, aok := tr.Select(rk)
				if !aok || a != model[rk-1].k {
					return false
				}
			}
			i := 0
			for _, b := range walk(tr) {
				for _, v := range b.vals {
					if i >= len(model) || model[i] != (entry{b.key, v}) {
						return false
					}
					i++
				}
			}
			return i == len(model)
		}
		for op := 0; op < 400; op++ {
			switch r.Intn(7) {
			case 0, 1, 2, 3: // insert
				k := r.Intn(40)
				tr.Insert(k, op)
				i := sort.Search(len(model), func(i int) bool { return model[i].k > k })
				model = append(model, entry{})
				copy(model[i+1:], model[i:])
				model[i] = entry{k, op}
			case 4, 5: // pop min bucket, compare contents
				k, vals, ok := tr.PopMin()
				if ok != (len(model) > 0) {
					return false
				}
				if !ok {
					continue
				}
				for i, v := range vals {
					if i >= len(model) || model[i] != (entry{k, v}) {
						return false
					}
				}
				if len(vals) < len(model) && model[len(vals)].k == k {
					return false // the bucket missed a value of its key
				}
				model = model[len(vals):]
			case 6: // occasional full reset: exercises slab reuse
				if r.Intn(10) == 0 {
					tr.Reset()
					model = model[:0]
				}
			}
			if !agree() {
				return false
			}
		}
		checkInvariants(t, tr)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPopMinBucketSurvivesInserts pins the ownership contract the DISC
// round loop relies on: the bucket returned by PopMin must remain intact
// while the caller re-Inserts into the same tree, and may only be recycled
// by the next PopMin or Reset.
func TestPopMinBucketSurvivesInserts(t *testing.T) {
	tr := New[int, int](func(a, b int) int { return a - b })
	for i := 0; i < 8; i++ {
		tr.Insert(1, 100+i)
	}
	for k := 2; k < 40; k++ {
		tr.Insert(k, k)
	}
	_, vals, ok := tr.PopMin()
	if !ok || len(vals) != 8 {
		t.Fatalf("PopMin bucket = %v %v", vals, ok)
	}
	// Re-insert aggressively while holding the popped bucket, mimicking the
	// discover loop (pop bucket, CKMS each member, insert under new keys).
	for i, v := range vals {
		if v != 100+i {
			t.Fatalf("bucket corrupted before inserts: %v", vals)
		}
		tr.Insert(50+i, v)
	}
	for i, v := range vals {
		if v != 100+i {
			t.Fatalf("bucket corrupted by inserts during iteration: index %d = %d", i, v)
		}
	}
	checkInvariants(t, tr)
}

// TestResetReusesSlabs proves the arena property: after Reset, refilling a
// tree of the same shape performs zero heap allocations and zero slab
// growth events.
func TestResetReusesSlabs(t *testing.T) {
	var rec Recorder
	tr := New[int, int](func(a, b int) int { return a - b }).Observe(&rec)
	fill := func() {
		for i := 0; i < 256; i++ {
			tr.Insert(i%37, i)
		}
		for {
			if _, _, ok := tr.PopMin(); !ok {
				break
			}
		}
		for i := 0; i < 256; i++ {
			tr.Insert(i%37, i)
		}
	}
	fill()
	grows := rec.SlabGrows.Load()
	if grows == 0 {
		t.Fatal("cold fill recorded no slab growth")
	}
	tr.Reset()
	allocs := testing.AllocsPerRun(10, func() {
		fill()
		tr.Reset()
	})
	if allocs != 0 {
		t.Fatalf("warm refill allocated %.0f times per run, want 0", allocs)
	}
	if got := rec.SlabGrows.Load(); got != grows {
		t.Fatalf("warm refill grew slabs: %d -> %d", grows, got)
	}
}

// TestMemBytesTracksSlabs sanity-checks the O(1) footprint accounting:
// empty tree reports zero, filling grows it, Reset keeps it (memory is
// retained by design).
func TestMemBytesTracksSlabs(t *testing.T) {
	tr := New[int, int](func(a, b int) int { return a - b })
	if tr.MemBytes() != 0 {
		t.Fatalf("empty tree MemBytes = %d", tr.MemBytes())
	}
	for i := 0; i < 1000; i++ {
		tr.Insert(i%97, i)
	}
	full := tr.MemBytes()
	if full <= 0 {
		t.Fatalf("filled tree MemBytes = %d", full)
	}
	// 97 nodes * 16B + keys + bucket headers + ~1000 bucket slots: sanity
	// band, not an exact figure (append over-allocates capacity).
	if full < 97*16 || full > 1<<20 {
		t.Fatalf("MemBytes %d outside sanity band", full)
	}
	tr.Reset()
	if got := tr.MemBytes(); got != full {
		t.Fatalf("Reset changed MemBytes %d -> %d; slabs should be retained", full, got)
	}
}
