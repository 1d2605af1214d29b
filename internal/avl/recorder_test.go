package avl

import "testing"

// TestRecorderCountsRotations inserts an ascending run — the worst case
// for an AVL tree — and checks the recorder saw the rebalancing work,
// while an unobserved tree (nil recorder) takes the same path safely.
func TestRecorderCountsRotations(t *testing.T) {
	cmp := func(a, b int) int { return a - b }

	var rec Recorder
	obs := New[int, int](cmp).Observe(&rec)
	plain := New[int, int](cmp)
	for i := 0; i < 64; i++ {
		obs.Insert(i, i)
		plain.Insert(i, i) // nil recorder path must not panic
	}
	if got := rec.Rotations.Load(); got == 0 {
		t.Fatal("ascending inserts produced zero rotations")
	}
	before := rec.Rotations.Load()
	for i := 0; i < 32; i++ {
		obs.PopMin()
		plain.PopMin()
	}
	if rec.Rotations.Load() <= before {
		t.Errorf("pop-mins produced no rotations (before=%d after=%d)", before, rec.Rotations.Load())
	}
	if obs.Height() != plain.Height() {
		t.Error("observed tree diverged from plain tree")
	}
}
