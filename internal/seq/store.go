package seq

// Store stages customer sequences into flat buffers and freezes them into
// one exact-sized slab per field. It is the representation of the §3.1
// reduced partitions: reduction filters an already canonical customer
// sequence, and a filtered canonical transaction is still canonical, so
// the staging appends are trusted — no re-sort, no re-dedupe, no
// per-customer allocation. The frozen customer sequences are views into
// the shared slabs and stay valid for as long as any of them is
// referenced; the Store itself keeps only its staging capacity.
//
// The zero Store is ready to use. Building one customer:
//
//	st.Begin()
//	st.Add(x) ... ; st.EndTransaction()   // once per transaction
//	st.Commit(cid)                        // or st.Discard()
type Store struct {
	items  []Item
	tnos   []int32
	starts []int32 // per customer: its NTrans+1 transaction offsets, relative to its first item
	custs  []storeCust
	item0  int // first item of the open customer
	start0 int // first starts entry of the open customer
}

// storeCust locates one committed customer in the staging buffers.
type storeCust struct {
	cid           int
	item0, start0 int32
}

// Begin opens a new customer sequence, discarding a customer left open
// (neither committed nor discarded) by the previous build step.
func (st *Store) Begin() {
	st.Discard()
	st.item0, st.start0 = len(st.items), len(st.starts)
	st.starts = append(st.starts, 0)
}

// Add appends x to the open transaction. The caller guarantees canonical
// form: x is greater than the previous item of the same transaction.
func (st *Store) Add(x Item) {
	st.items = append(st.items, x)
	st.tnos = append(st.tnos, int32(len(st.starts)-st.start0))
}

// AddTransaction appends a whole canonical transaction and closes it.
func (st *Store) AddTransaction(tr Itemset) {
	for _, x := range tr {
		st.Add(x)
	}
	st.EndTransaction()
}

// EndTransaction closes the open transaction. A transaction that received
// no items is dropped, so transaction numbers stay dense.
func (st *Store) EndTransaction() {
	if rel := int32(len(st.items) - st.item0); rel > st.starts[len(st.starts)-1] {
		st.starts = append(st.starts, rel)
	}
}

// Len returns the number of item occurrences staged for the open customer.
func (st *Store) Len() int { return len(st.items) - st.item0 }

// Commit keeps the open customer under the customer id cid.
func (st *Store) Commit(cid int) {
	st.custs = append(st.custs, storeCust{cid: cid, item0: int32(st.item0), start0: int32(st.start0)})
	st.item0, st.start0 = len(st.items), len(st.starts)
}

// Discard drops the open customer's staged items; without an open
// customer it does nothing.
func (st *Store) Discard() {
	st.items = st.items[:st.item0]
	st.tnos = st.tnos[:st.item0]
	st.starts = st.starts[:st.start0]
}

// Freeze copies the committed customers into exact-sized slabs — one each
// for items, transaction numbers, transaction offsets and the sequence
// headers — and returns them in commit order. The staging buffers are
// rewound (keeping their capacity) for the next build.
func (st *Store) Freeze() []*CustomerSeq {
	st.Discard() // an open, uncommitted customer never reaches the slabs
	n := len(st.custs)
	if n == 0 {
		st.Reset()
		return nil
	}
	ni := len(st.items)
	items := make([]Item, ni)
	tnos := make([]int32, ni)
	starts := make([]int32, len(st.starts))
	copy(items, st.items)
	copy(tnos, st.tnos)
	copy(starts, st.starts)
	headers := make([]CustomerSeq, n)
	out := make([]*CustomerSeq, n)
	for i, c := range st.custs {
		endI, endS := ni, len(starts)
		if i+1 < n {
			endI, endS = int(st.custs[i+1].item0), int(st.custs[i+1].start0)
		}
		headers[i] = CustomerSeq{
			CID:    c.cid,
			items:  items[c.item0:endI:endI],
			tnos:   tnos[c.item0:endI:endI],
			starts: starts[c.start0:endS:endS],
		}
		out[i] = &headers[i]
	}
	st.Reset()
	return out
}

// Reset discards everything staged, keeping the buffers' capacity.
func (st *Store) Reset() {
	st.items, st.tnos, st.starts, st.custs = st.items[:0], st.tnos[:0], st.starts[:0], st.custs[:0]
	st.item0, st.start0 = 0, 0
}

// MemBytes reports the staging buffers' capacity in bytes.
func (st *Store) MemBytes() int64 {
	return int64(cap(st.items)+cap(st.tnos)+cap(st.starts))*4 + int64(cap(st.custs))*16
}
