package seq

import (
	"fmt"
	"math/rand"
	"testing"
)

// sameCustomer compares every observable of two customer sequences: CID,
// the flattened items and transaction numbers, and the transaction
// offsets.
func sameCustomer(got, want *CustomerSeq) error {
	if got.CID != want.CID || got.Len() != want.Len() || got.NTrans() != want.NTrans() {
		return fmt.Errorf("cid/len/ntrans = %d/%d/%d, want %d/%d/%d",
			got.CID, got.Len(), got.NTrans(), want.CID, want.Len(), want.NTrans())
	}
	for i := 0; i < want.Len(); i++ {
		if got.ItemAt(i) != want.ItemAt(i) || got.TNoAt(i) != want.TNoAt(i) {
			return fmt.Errorf("position %d: (%d,%d), want (%d,%d)",
				i, got.ItemAt(i), got.TNoAt(i), want.ItemAt(i), want.TNoAt(i))
		}
	}
	for t := 0; t <= want.NTrans(); t++ {
		if got.TransStart(t) != want.TransStart(t) {
			return fmt.Errorf("TransStart(%d) = %d, want %d", t, got.TransStart(t), want.TransStart(t))
		}
	}
	return nil
}

// TestStoreMatchesNewCustomerSeq: customers staged through the trusted
// appends — filtered canonical transactions, some filtered to nothing,
// some customers discarded or abandoned open — freeze into views equal to
// NewCustomerSeq over the same kept items. Several builds reuse one Store.
func TestStoreMatchesNewCustomerSeq(t *testing.T) {
	r := rand.New(rand.NewSource(311))
	var st Store
	for build := 0; build < 300; build++ {
		var want []*CustomerSeq
		for c, n := 0, r.Intn(12); c < n; c++ {
			src := randomCustomer(r, 9, 6, 4)
			st.Begin()
			var kept []Itemset
			for ti := 0; ti < src.NTrans(); ti++ {
				var tr Itemset
				for _, x := range src.Transaction(ti) {
					if r.Intn(5) < 3 {
						tr = append(tr, x)
						st.Add(x)
					}
				}
				st.EndTransaction()
				kept = append(kept, tr)
			}
			if st.Len() != NewCustomerSeq(0, kept...).Len() {
				t.Fatalf("build %d: staged Len %d, want %d", build, st.Len(), NewCustomerSeq(0, kept...).Len())
			}
			switch r.Intn(6) {
			case 0:
				st.Discard()
			case 1:
				// Left open: the next Begin or Freeze drops it.
			default:
				st.Commit(100*build + c)
				want = append(want, NewCustomerSeq(100*build+c, kept...))
			}
		}
		if r.Intn(3) == 0 { // a whole-transaction customer
			src := randomCustomer(r, 9, 4, 3)
			st.Begin()
			for ti := 0; ti < src.NTrans(); ti++ {
				st.AddTransaction(src.Transaction(ti))
			}
			st.Commit(-build)
			want = append(want, NewCustomerSeq(-build, src.Itemsets()...))
		}
		got := st.Freeze()
		if len(got) != len(want) {
			t.Fatalf("build %d: froze %d customers, want %d", build, len(got), len(want))
		}
		for i := range want {
			if err := sameCustomer(got[i], want[i]); err != nil {
				t.Fatalf("build %d customer %d: %v", build, i, err)
			}
			if cap(got[i].items) != len(got[i].items) || cap(got[i].tnos) != len(got[i].tnos) || cap(got[i].starts) != len(got[i].starts) {
				t.Fatalf("build %d customer %d: view has spare capacity into its neighbour", build, i)
			}
		}
	}
}

// TestStoreFreezeEmpty: a build with no committed customer freezes to
// nil, and a discarded customer leaves no trace in the next build.
func TestStoreFreezeEmpty(t *testing.T) {
	var st Store
	if got := st.Freeze(); got != nil {
		t.Fatalf("empty Freeze = %v", got)
	}
	st.Begin()
	st.AddTransaction(Itemset{1, 2})
	st.Discard()
	if got := st.Freeze(); got != nil {
		t.Fatalf("Freeze after Discard = %v", got)
	}
	st.Begin()
	st.AddTransaction(Itemset{3})
	st.Commit(7)
	got := st.Freeze()
	if len(got) != 1 || got[0].Pattern().Letters() != "<(c)>" || got[0].CID != 7 {
		t.Fatalf("Freeze = %v", got)
	}
}

// TestStoreStagingSteadyState: once warm, staging a build and rewinding
// it performs no allocation — only Freeze allocates, once per slab.
func TestStoreStagingSteadyState(t *testing.T) {
	var st Store
	tr := Itemset{2, 4, 6, 8}
	build := func() {
		for c := 0; c < 32; c++ {
			st.Begin()
			st.AddTransaction(tr)
			st.Add(3)
			st.EndTransaction()
			st.Commit(c)
		}
		st.Reset()
	}
	build()
	if allocs := testing.AllocsPerRun(20, build); allocs != 0 {
		t.Fatalf("warm staging allocated %.0f times, want 0", allocs)
	}
	if st.MemBytes() == 0 {
		t.Fatal("warm store reports no staging memory")
	}
}
