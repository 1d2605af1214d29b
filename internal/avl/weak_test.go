//go:build go1.24

package avl

import (
	"runtime"
	"testing"
	"weak"
)

type payload struct{ buf [64]byte }

// insertPayload stores a fresh heap value under key and returns only a
// weak pointer to it, so the tree holds the sole strong reference.
//
//go:noinline
func insertPayload(tr *Tree[int, *payload], key int) weak.Pointer[payload] {
	v := &payload{}
	tr.Insert(key, v)
	return weak.Make(v)
}

// collected reports whether the weak pointer's referent has been
// reclaimed after a few forced collections.
func collected(w weak.Pointer[payload]) bool {
	for i := 0; i < 4; i++ {
		runtime.GC()
		if w.Value() == nil {
			return true
		}
	}
	return false
}

// TestPoppedValuesNotPinned: the slab keeps bucket capacity for reuse,
// but a value popped from the tree must become collectable once the
// popped bucket's validity ends (the next PopMin) or the tree is Reset —
// a stale value left in a warm bucket would pin everything it references
// (for the DISC engine, a whole partition's reduced-sequence slab).
func TestPoppedValuesNotPinned(t *testing.T) {
	t.Run("PopMin", func(t *testing.T) {
		tr := New[int, *payload](func(a, b int) int { return a - b })
		w := insertPayload(tr, 1)
		insertPayload(tr, 2)
		if _, vals, ok := tr.PopMin(); !ok || len(vals) != 1 {
			t.Fatal("PopMin lost the first bucket")
		}
		// The popped bucket is still valid here; the next PopMin ends it.
		if _, _, ok := tr.PopMin(); !ok {
			t.Fatal("PopMin lost the second bucket")
		}
		if !collected(w) {
			t.Fatal("popped value is still reachable through the slab after the next PopMin")
		}
		runtime.KeepAlive(tr)
	})
	t.Run("Reset", func(t *testing.T) {
		tr := New[int, *payload](func(a, b int) int { return a - b })
		live := insertPayload(tr, 1)
		popped := insertPayload(tr, 0)
		if _, _, ok := tr.PopMin(); !ok {
			t.Fatal("PopMin lost the bucket")
		}
		tr.Reset()
		if !collected(live) {
			t.Fatal("value of a live bucket is still reachable after Reset")
		}
		if !collected(popped) {
			t.Fatal("value of the pending popped bucket is still reachable after Reset")
		}
		runtime.KeepAlive(tr)
	})
}
