package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/disc-mining/disc/internal/gen"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/seq"
)

// referenceReduce is the §3.1 reduction written the direct way: collect
// each customer's kept items per transaction and rebuild the customer
// with seq.NewCustomerSeq (which re-sorts and re-dedupes), dropping
// customers shorter than 3. The keep rules are those of reduceMembers.
func referenceReduce(lambda seq.Item, members []*seq.CustomerSeq, list2 []seq.Pattern) []*seq.CustomerSeq {
	freqI := map[seq.Item]bool{}
	freqS := map[seq.Item]bool{}
	for _, p := range list2 {
		if p.NumItemsets() == 1 {
			freqI[p.LastItem()] = true
		} else {
			freqS[p.LastItem()] = true
		}
	}
	var out []*seq.CustomerSeq
	for _, cs := range members {
		minTrans := 0
		for !cs.Transaction(minTrans).Has(lambda) {
			minTrans++
		}
		var sets []seq.Itemset
		for t := 0; t < cs.NTrans(); t++ {
			tr := cs.Transaction(t)
			if t < minTrans {
				sets = append(sets, tr)
				continue
			}
			hasLambda := tr.Has(lambda)
			var kept seq.Itemset
			for _, x := range tr {
				var keep bool
				switch {
				case x == lambda:
					keep = true
				case t == minTrans:
					keep = x > lambda && freqI[x]
				case hasLambda:
					keep = freqS[x] || (x > lambda && freqI[x])
				default:
					keep = freqS[x]
				}
				if keep {
					kept = append(kept, x)
				}
			}
			sets = append(sets, kept)
		}
		if red := seq.NewCustomerSeq(cs.CID, sets...); red.Len() >= 3 {
			out = append(out, red)
		}
	}
	return out
}

// sameReduced compares two reduced partitions customer by customer: the
// kept set (so also the drop set), CIDs, items, transaction numbers and
// transaction offsets.
func sameReduced(got, want []*seq.CustomerSeq) error {
	if len(got) != len(want) {
		return fmt.Errorf("kept %d customers, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.CID != w.CID || g.Len() != w.Len() || g.NTrans() != w.NTrans() {
			return fmt.Errorf("customer %d: cid/len/ntrans %d/%d/%d, want %d/%d/%d",
				i, g.CID, g.Len(), g.NTrans(), w.CID, w.Len(), w.NTrans())
		}
		for j := 0; j < w.Len(); j++ {
			if g.ItemAt(j) != w.ItemAt(j) || g.TNoAt(j) != w.TNoAt(j) {
				return fmt.Errorf("cid %d position %d: (%d,%d), want (%d,%d)",
					w.CID, j, g.ItemAt(j), g.TNoAt(j), w.ItemAt(j), w.TNoAt(j))
			}
		}
		for t := 0; t <= w.NTrans(); t++ {
			if g.TransStart(t) != w.TransStart(t) {
				return fmt.Errorf("cid %d TransStart(%d) = %d, want %d", w.CID, t, g.TransStart(t), w.TransStart(t))
			}
		}
	}
	return nil
}

// TestReduceMembersMatchesReference is the differential test of the flat
// reduced-sequence store: for generated and gen.Mutate'd databases, every
// first-level partition reduced through the store must equal the
// reference rebuild — same kept customers in the same order, same items,
// transaction numbers and offsets. One engine (and so one staging store)
// serves every partition of a database, as in a serial run.
func TestReduceMembersMatchesReference(t *testing.T) {
	partitions := 0
	for seed := int64(1); seed <= 12; seed++ {
		cfg := gen.PaperDefaults(80)
		cfg.NItems = 30 + int(seed)*5
		cfg.Seed = seed
		db, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if seed%2 == 0 {
			db = gen.Mutate(rand.New(rand.NewSource(seed)), db)
		}
		minSup := mining.AbsSupport(0.05, len(db))
		e := &engine{minSup: minSup, res: mining.NewResult(), maxItem: db.MaxItem(),
			opts: DefaultOptions(), policy: func(int, float64) bool { return true }}
		list1, _ := e.frequentExtensions(seq.Pattern{}, db, 0)
		buckets, err := e.eagerBuckets(seq.Pattern{}, db, list1, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, key := range list1 {
			members := buckets[i]
			list2, _ := e.frequentExtensions(key, members, 1)
			got, err := e.reduceMembers(key.LastItem(), members, list2)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceReduce(key.LastItem(), members, list2)
			if err := sameReduced(got, want); err != nil {
				t.Fatalf("seed %d partition %s: %v", seed, key, err)
			}
			partitions++
		}
	}
	if partitions < 50 {
		t.Fatalf("only %d partitions compared", partitions)
	}
}

// TestReducedStagingCountedInMemBytes: the store's staging buffers are
// part of the arena footprint the memory budget reads, exactly.
func TestReducedStagingCountedInMemBytes(t *testing.T) {
	s := newScratch(40, nil, nil)
	base := s.MemBytes()
	s.reduced.Begin()
	for x := seq.Item(1); x <= 30; x++ {
		s.reduced.Add(x)
		s.reduced.EndTransaction()
	}
	s.reduced.Commit(1)
	grown := s.reduced.MemBytes()
	if grown == 0 {
		t.Fatal("staging reports no memory after a build")
	}
	if got := s.MemBytes() - base; got != grown {
		t.Fatalf("scratch MemBytes grew by %d, staging holds %d", got, grown)
	}
	s.release()
	if got := s.MemBytes() - base; got != grown {
		t.Fatalf("release changed the retained staging footprint: %d, want %d", got, grown)
	}
}
