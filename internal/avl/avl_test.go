package avl

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intTree() *Tree[int, int] {
	return New[int, int](func(a, b int) int { return a - b })
}

// bucket is one distinct key with its values, as an in-order walk of the
// slab finds them.
type bucket struct {
	key  int
	vals []int
}

// walk returns the tree's buckets in ascending key order by traversing
// the slab directly, so the tests read the structure without a
// test-only method on Tree.
func walk(tr *Tree[int, int]) []bucket {
	var out []bucket
	var rec func(i int32)
	rec = func(i int32) {
		if i == 0 {
			return
		}
		rec(tr.nodes[i].left)
		out = append(out, bucket{tr.keys[i], tr.vals[i]})
		rec(tr.nodes[i].right)
	}
	rec(tr.root)
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := intTree()
	if tr.Size() != 0 || len(walk(tr)) != 0 || tr.Height() != 0 {
		t.Fatal("empty tree has nonzero size/keys/height")
	}
	if _, _, ok := tr.Min(); ok {
		t.Error("Min on empty tree")
	}
	if _, _, ok := tr.PopMin(); ok {
		t.Error("PopMin on empty tree")
	}
	if _, ok := tr.Select(1); ok {
		t.Error("Select on empty tree")
	}
}

func TestInsertBucketsAndMin(t *testing.T) {
	tr := intTree()
	tr.Insert(5, 50)
	tr.Insert(3, 30)
	tr.Insert(5, 51)
	tr.Insert(8, 80)
	bs := walk(tr)
	if tr.Size() != 4 || len(bs) != 3 {
		t.Fatalf("Size=%d keys=%d, want 4,3", tr.Size(), len(bs))
	}
	k, vals, ok := tr.Min()
	if !ok || k != 3 || len(vals) != 1 || vals[0] != 30 {
		t.Fatalf("Min = %d %v %v", k, vals, ok)
	}
	if b := bs[1]; b.key != 5 || len(b.vals) != 2 || b.vals[0] != 50 || b.vals[1] != 51 {
		t.Fatalf("bucket of key 5 = %+v, want values 50, 51 in insertion order", b)
	}
}

func TestSelectCountsMultiplicity(t *testing.T) {
	tr := intTree()
	// Keys: 1 (x2), 2 (x3), 3 (x1). Ranks: 1,2 -> 1; 3,4,5 -> 2; 6 -> 3.
	for i, k := range []int{1, 1, 2, 2, 2, 3} {
		tr.Insert(k, i)
	}
	want := []int{1, 1, 2, 2, 2, 3}
	for r := 1; r <= 6; r++ {
		k, ok := tr.Select(r)
		if !ok || k != want[r-1] {
			t.Errorf("Select(%d) = %d %v, want %d", r, k, ok, want[r-1])
		}
	}
	if _, ok := tr.Select(0); ok {
		t.Error("Select(0) should fail")
	}
	if _, ok := tr.Select(7); ok {
		t.Error("Select(7) should fail")
	}
}

func TestPopMinDrains(t *testing.T) {
	tr := intTree()
	keys := []int{7, 3, 9, 3, 1, 7, 5}
	for i, k := range keys {
		tr.Insert(k, i)
	}
	var got []int
	for {
		k, vals, ok := tr.PopMin()
		if !ok {
			break
		}
		for range vals {
			got = append(got, k)
		}
	}
	want := append([]int(nil), keys...)
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
	if tr.Size() != 0 {
		t.Error("tree not empty after drain")
	}
}

// checkInvariants verifies the AVL balance factor, the subtree sizes, the
// key ordering, and that the sentinel slot stays pristine.
func checkInvariants(t *testing.T, tr *Tree[int, int]) {
	t.Helper()
	if len(tr.nodes) > 0 && tr.nodes[0] != (node{}) {
		t.Fatalf("sentinel slot corrupted: %+v", tr.nodes[0])
	}
	var rec func(i int32) (h, sz int32)
	rec = func(i int32) (int32, int32) {
		if i == 0 {
			return 0, 0
		}
		n := tr.nodes[i]
		lh, ls := rec(n.left)
		rh, rs := rec(n.right)
		if d := lh - rh; d < -1 || d > 1 {
			t.Fatalf("unbalanced node key=%d: %d vs %d", tr.keys[i], lh, rh)
		}
		if n.height != 1+max(lh, rh) {
			t.Fatalf("bad height at key=%d", tr.keys[i])
		}
		if n.size != int32(len(tr.vals[i]))+ls+rs {
			t.Fatalf("bad size at key=%d: %d != %d+%d+%d", tr.keys[i], n.size, len(tr.vals[i]), ls, rs)
		}
		if n.left != 0 && tr.keys[n.left] >= tr.keys[i] {
			t.Fatalf("order violation at key=%d", tr.keys[i])
		}
		if n.right != 0 && tr.keys[n.right] <= tr.keys[i] {
			t.Fatalf("order violation at key=%d", tr.keys[i])
		}
		return n.height, n.size
	}
	rec(tr.root)
}

// TestInvariantsUnderRandomOps is a property test: after any random mix of
// inserts and pop-mins, the AVL invariants hold and Select and an
// in-order walk of the slab agree with a sorted-slice model.
func TestInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := intTree()
		var model []int // sorted multiset of keys
		for op := 0; op < 300; op++ {
			switch r.Intn(3) {
			case 0, 1: // insert
				k := r.Intn(40)
				tr.Insert(k, op)
				i := sort.SearchInts(model, k)
				model = append(model, 0)
				copy(model[i+1:], model[i:])
				model[i] = k
			case 2: // pop min bucket
				k, vals, ok := tr.PopMin()
				if !ok {
					if len(model) != 0 {
						return false
					}
					continue
				}
				if k != model[0] {
					return false
				}
				cnt := 0
				for cnt < len(model) && model[cnt] == k {
					cnt++
				}
				if len(vals) != cnt {
					return false
				}
				model = model[cnt:]
			}
		}
		checkInvariants(t, tr)
		if tr.Size() != len(model) {
			return false
		}
		for r2 := 1; r2 <= len(model); r2++ {
			k, ok := tr.Select(r2)
			if !ok || k != model[r2-1] {
				return false
			}
		}
		i := 0
		for _, b := range walk(tr) {
			for range b.vals {
				if i >= len(model) || model[i] != b.key {
					return false
				}
				i++
			}
		}
		return i == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestLogarithmicHeight checks that n sequential inserts produce height
// O(log n) (AVL bound: 1.44 log2(n+2)).
func TestLogarithmicHeight(t *testing.T) {
	tr := intTree()
	n := 1 << 12
	for i := 0; i < n; i++ {
		tr.Insert(i, i)
	}
	bound := int(1.45*math.Log2(float64(n+2))) + 2
	if tr.Height() > bound {
		t.Fatalf("height %d exceeds AVL bound %d for %d sequential inserts", tr.Height(), bound, n)
	}
}
