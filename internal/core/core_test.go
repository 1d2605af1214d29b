package core

import (
	"math/rand"
	"testing"

	"github.com/disc-mining/disc/internal/bruteforce"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/seq"
	"github.com/disc-mining/disc/internal/testutil"
)

func allVariants() []mining.Miner {
	return []mining.Miner{
		New(),
		&Miner{Opts: Options{BiLevel: false, Levels: 2}},
		&Miner{Opts: Options{BiLevel: true, Levels: 1}},
		&Miner{Opts: Options{BiLevel: true, Levels: 3}},
		&Miner{Opts: Options{BiLevel: true, Levels: -1}}, // pure DISC, no partitioning
		&Miner{}, // zero options: no partitioning, no bi-level (explicit zero is honoured)
		&Miner{Opts: Options{BiLevel: true, Levels: 2, Workers: 4}},  // parallel scheduler
		&Miner{Opts: Options{BiLevel: false, Levels: 3, Workers: 3}}, // parallel, deeper static split
		NewDynamic(),
		&Dynamic{Opts: Options{BiLevel: true, Gamma: 0.05}},
		&Dynamic{Opts: Options{BiLevel: false, Gamma: 0.95}},
		&Dynamic{Opts: Options{BiLevel: true, Gamma: 0.5, Workers: 4}}, // parallel dynamic
	}
}

// TestTable1Golden mines the paper's Table 1 with δ=2.
func TestTable1Golden(t *testing.T) {
	db := testutil.Table1()
	ref, err := bruteforce.Exhaustive{}.Mine(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	testutil.CheckAgainst(t, ref, allVariants(), db, 2)
}

// TestTable6Golden mines the §3.1 running example with δ=3 and spot-checks
// the patterns the paper names: <(a, e)>, <(a)(g, h)>, the frequent
// 4-sequence <(a)(a, e, g)> of Example 3.5 and its unique frequent
// 5-extension <(a)(a, e, g, h)>.
func TestTable6Golden(t *testing.T) {
	db := testutil.Table6()
	ref, err := bruteforce.Exhaustive{}.Mine(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	testutil.CheckAgainst(t, ref, allVariants(), db, 3)

	m := New()
	res, err := m.Mine(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"(a, e)", "(a)(g, h)", "(a)(a, e, g)", "(a)(a, e, g, h)"} {
		if _, ok := res.Support(seq.MustParsePattern(s)); !ok {
			t.Errorf("%s should be frequent", s)
		}
	}
	// Example 3.5: <(a)(a, e, g, h)> is the only frequent 5-sequence with
	// 4-prefix <(a)(a, e, g)>.
	for _, pc := range res.Sorted() {
		if pc.Pattern.Len() == 5 && pc.Pattern.Prefix(4).Equal(seq.MustParsePattern("(a)(a, e, g)")) {
			if !pc.Pattern.Equal(seq.MustParsePattern("(a)(a, e, g, h)")) {
				t.Errorf("unexpected frequent 5-sequence %s", pc.Pattern.Letters())
			}
		}
	}
}

// TestRandomAgainstOracle is the central differential test: every DISC
// variant must equal the exhaustive oracle on random databases.
func TestRandomAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for i := 0; i < 80; i++ {
		db := testutil.RandomDB(r, 6+r.Intn(8), 5, 4, 3)
		minSup := 1 + r.Intn(4)
		ref, err := bruteforce.Exhaustive{}.Mine(db, minSup)
		if err != nil {
			t.Fatal(err)
		}
		testutil.CheckAgainst(t, ref, allVariants(), db, minSup)
	}
}

// TestSkewedAgainstLevelWise stresses deeper recursion with larger skewed
// databases.
func TestSkewedAgainstLevelWise(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for i := 0; i < 10; i++ {
		db := testutil.SkewedRandomDB(r, 70, 12, 6, 4)
		minSup := 3 + r.Intn(6)
		ref, err := bruteforce.LevelWise{}.Mine(db, minSup)
		if err != nil {
			t.Fatal(err)
		}
		testutil.CheckAgainst(t, ref, allVariants(), db, minSup)
	}
}

// TestLongIdenticalSequences forces very long frequent sequences through
// the DISC loop (every k up to the sequence length is frequent).
func TestLongIdenticalSequences(t *testing.T) {
	db := mining.Database{
		seq.MustParseCustomerSeq(1, "(a, b)(c)(a, b)(c)(a, b)(c)"),
		seq.MustParseCustomerSeq(2, "(a, b)(c)(a, b)(c)(a, b)(c)"),
	}
	ref, err := bruteforce.Exhaustive{}.Mine(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	testutil.CheckAgainst(t, ref, allVariants(), db, 2)
	res, _ := New().Mine(db, 2)
	if sup, ok := res.Support(seq.MustParsePattern("(a, b)(c)(a, b)(c)(a, b)(c)")); !ok || sup != 2 {
		t.Errorf("full-length pattern support = %d,%v", sup, ok)
	}
}

// TestMinSupOne exercises the δ=1 edge: α_δ is always α₁, so every DISC
// round is a frequent hit.
func TestMinSupOne(t *testing.T) {
	db := mining.Database{seq.MustParseCustomerSeq(1, "(b)(a, c)(b)")}
	ref, err := bruteforce.Exhaustive{}.Mine(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	testutil.CheckAgainst(t, ref, allVariants(), db, 1)
}

func TestEmptyAndTinyDatabases(t *testing.T) {
	for _, m := range allVariants() {
		res, err := m.Mine(nil, 1)
		if err != nil || res.Len() != 0 {
			t.Errorf("%s on empty db: %v, %d", m.Name(), err, res.Len())
		}
		res, err = m.Mine(mining.Database{seq.MustParseCustomerSeq(1, "(a)")}, 2)
		if err != nil || res.Len() != 0 {
			t.Errorf("%s single customer, δ=2: %v, %d", m.Name(), err, res.Len())
		}
	}
}

// TestStatsAreMeaningful checks the instrumentation that the NRR analysis
// (§4.2) builds on: DISC rounds happen, skips happen on data with
// non-frequent minimums, partitions are counted per level.
func TestStatsAreMeaningful(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	db := testutil.SkewedRandomDB(r, 60, 10, 6, 4)
	m := New()
	if _, err := m.Mine(db, 4); err != nil {
		t.Fatal(err)
	}
	st := m.LastStats()
	if st.Rounds == 0 || st.KMSCalls == 0 {
		t.Errorf("no DISC activity recorded: %+v", st)
	}
	if st.FrequentHits+st.Skips != st.Rounds {
		t.Errorf("rounds %d != hits %d + skips %d", st.Rounds, st.FrequentHits, st.Skips)
	}
	if len(st.PartitionsByLevel) == 0 || st.PartitionsByLevel[0] != 1 {
		t.Errorf("PartitionsByLevel = %v", st.PartitionsByLevel)
	}
	if len(st.NRRByLevel) == 0 || st.NRRByLevel[0] <= 0 || st.NRRByLevel[0] >= 1 {
		t.Errorf("root NRR = %v, expected in (0,1)", st.NRRByLevel)
	}
}

// TestSkipsOccur verifies Lemma 2.2 actually triggers: a database designed
// so that customers disagree on their k-minimums must produce skip events.
func TestSkipsOccur(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	db := testutil.RandomDB(r, 30, 8, 5, 3)
	m := &Miner{Opts: Options{BiLevel: true, Levels: 1}}
	if _, err := m.Mine(db, 3); err != nil {
		t.Fatal(err)
	}
	if m.LastStats().Skips == 0 {
		t.Errorf("expected at least one Lemma-2.2 skip, stats %+v", m.LastStats())
	}
}

// TestDynamicMatchesStaticOnPaperData: the two algorithms must agree
// pattern-for-pattern regardless of γ.
func TestDynamicMatchesStatic(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	for _, gamma := range []float64{0.01, 0.3, 0.7, 0.99} {
		db := testutil.SkewedRandomDB(r, 50, 10, 5, 3)
		sRes, err := New().Mine(db, 3)
		if err != nil {
			t.Fatal(err)
		}
		d := &Dynamic{Opts: Options{BiLevel: true, Gamma: gamma}}
		dRes, err := d.Mine(db, 3)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sRes.Diff(dRes); diff != "" {
			t.Fatalf("gamma=%v:\n%s", gamma, diff)
		}
	}
}

// TestReduceMembersTable7 reproduces Table 7: the <(a)>-partition of Table
// 6 with reduced customer sequences (δ=3). CID 5 drops out (too short).
func TestReduceMembersTable7(t *testing.T) {
	db := testutil.Table6()
	e := &engine{minSup: 3, res: mining.NewResult(), maxItem: db.MaxItem(),
		opts: DefaultOptions(), policy: func(int, float64) bool { return true }}
	members := db[:7] // CIDs 1-7 form the <(a)>-partition
	list2, _ := e.frequentExtensions(seq.MustParsePattern("(a)"), members, 1)
	reduced, err := e.reduceMembers(1, members, list2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{
		1: "<(a)(a, g, h)(c)>",
		2: "<(b)(a)(a, c, e, g)>",
		3: "<(a, f, g)(a, e, g, h)(c, g, h)>",
		4: "<(f)(a, f)(a, c, e, g, h)>",
		6: "<(a, f)(a, e, g, h)>",
		7: "<(a, g)(a, e, g)(g, h)>",
	}
	if len(reduced) != len(want) {
		var got []string
		for _, cs := range reduced {
			got = append(got, cs.Pattern().Letters())
		}
		t.Fatalf("reduced partition = %v, want %d members", got, len(want))
	}
	for _, cs := range reduced {
		if cs.Pattern().Letters() != want[cs.CID] {
			t.Errorf("CID %d reduced = %s, want %s", cs.CID, cs.Pattern().Letters(), want[cs.CID])
		}
	}
}

// TestPartitionAssignmentExample31 checks the first-level partition
// assignment of Example 3.1 (Table 6, δ=3) through minFreqExtension. Two
// deliberate differences from the paper's bookkeeping are also pinned
// down: CID 9's minimum item d is not frequent, so it is assigned directly
// to its minimal *frequent* item f (the paper parks it in the
// <(d)>-partition, which is later skipped and reassigned — same effect);
// and after the <(a)>-partition is processed, CID 5 = (a, g) is reassigned
// to <(g)> rather than removed (the paper drops it because the minimum
// point sits at the end; keeping it preserves the partition-size =
// support invariant and is harmless since it cannot host any 2-sequence).
func TestPartitionAssignmentExample31(t *testing.T) {
	db := testutil.Table6()
	// Frequent items at δ=3: everything but d (support 2).
	freqS := make([]bool, 9)
	for _, x := range []seq.Item{1, 2, 3, 5, 6, 7, 8} {
		freqS[x] = true
	}
	wantInitial := map[int]seq.Item{
		1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, // <(a)>-partition
		8: 2, 10: 2, // <(b)>-partition
		9:  6, // paper: <(d)>-partition; d is non-frequent, so directly f
		11: 5, // <(e)>-partition
	}
	for _, cs := range db {
		x, no, ok := minFreqExtension(cs, seq.Pattern{}, nil, freqS, 0, 0, false)
		if !ok || no != 1 || x != wantInitial[cs.CID] {
			t.Errorf("CID %d initial partition = item %d (%v), want %d", cs.CID, x, ok, wantInitial[cs.CID])
		}
	}
	// Reassignment after processing the <(a)>-partition (bound item a,
	// strict): the rightmost column of Table 6.
	wantNext := map[int]seq.Item{
		1: 3, // <(c)>-partition
		2: 2, // <(b)>-partition
		3: 3, 4: 3,
		5: 7, // paper: removed; here <(g)> (see comment above)
		6: 5, // <(e)>-partition
		7: 2,
	}
	for _, cs := range db[:7] {
		x, _, ok := minFreqExtension(cs, seq.Pattern{}, nil, freqS, 1, 1, true)
		if !ok || x != wantNext[cs.CID] {
			t.Errorf("CID %d next partition = item %d (%v), want %d", cs.CID, x, ok, wantNext[cs.CID])
		}
	}
	// End-to-end: exactly the 7 frequent first-level partitions are
	// processed.
	m := New()
	if _, err := m.Mine(db, 3); err != nil {
		t.Fatal(err)
	}
	st := m.LastStats()
	if len(st.PartitionsByLevel) < 2 || st.PartitionsByLevel[0] != 1 || st.PartitionsByLevel[1] != 7 {
		t.Errorf("PartitionsByLevel = %v, want [1 7 ...]", st.PartitionsByLevel)
	}
}
