package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/disc-mining/disc/internal/data"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/prefixspan"
)

// miningSpec is a mining workload: its database and the absolute
// support threshold δ it is mined at.
type miningSpec struct {
	database func() (mining.Database, error)
	minSup   int
}

// input is the workload's database as one seed presents it, serialised
// and parsed back.
type input struct {
	body []byte
	db   mining.Database
}

// setUp generates the database, presents it in the seed's customer
// order, serialises it and parses it back.
func (s miningSpec) setUp(seed int64) (input, error) {
	db, err := s.database()
	if err != nil {
		return input{}, err
	}
	body, err := serialise(present(db, seed))
	if err != nil {
		return input{}, err
	}
	parsed, err := data.ReadLimited(bytes.NewReader(body), data.Auto, data.Limits{})
	return input{body: body, db: parsed}, err
}

// setUpRepeats is how often a run sets up its input; setup_s is the
// median.
const setUpRepeats = 5

// present returns db with its customers in an order drawn from seed and
// their CIDs renumbered in that order. Supports count customers, so the
// mined result does not change; the input bytes and the order in which
// the engine meets the customers do.
func present(db mining.Database, seed int64) mining.Database {
	out := make(mining.Database, len(db))
	for i, p := range rand.New(rand.NewSource(seed)).Perm(len(db)) {
		cs := *db[p]
		cs.CID = i + 1
		out[i] = &cs
	}
	return out
}

func serialise(db mining.Database) ([]byte, error) {
	var buf bytes.Buffer
	err := data.Write(&buf, db, data.Native)
	return buf.Bytes(), err
}

// runMining measures a mining workload. Each round mines the input
// three ways: DISC-all with Workers 1; the discmine path (parse the
// input bytes, DISC-all with Workers = nproc, encode the result); and
// Pseudo. All results must encode to identical bytes. Rounds repeat
// while the next one still fits in the run's time; each metric is the
// median over the rounds.
func runMining(e *env, s miningSpec) error {
	var setup sample
	var in input
	for i := 0; i < setUpRepeats; i++ {
		t := time.Now()
		var err error
		if in, err = s.setUp(e.seed); err != nil {
			return err
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	e.r.set("setup_s", setup.median(), "s")
	e.r.notef("setup_s samples = %d, customers = %d, minsup = %d", len(setup), len(in.db), s.minSup)

	// Warm up: the first mine of a process grows the heap and the
	// engine's arena pools, which no later round pays for again.
	t := time.Now()
	if _, err := mineDISC(e, false, "core.Mine/warm-up", 0, e.tr.newOp(), in.db, s.minSup, e.nproc); !e.r.op(err) {
		return err
	}
	e.r.notef("warm-up (one parallel DISC-all mine) = %.4f s", time.Since(t).Seconds())

	var disc, discT, par, result, pseudo sample
	var ref []byte // the result bytes the last round agreed on
	var layers discLayers
	var ph phases
	start := time.Now()
	var last time.Duration
	for round := 0; round == 0 || time.Since(start)+last <= e.seconds; round++ {
		t := time.Now()
		op := e.tr.newOp()
		var encs [][]byte
		var errs []error

		settle()
		d, err := mineDISC(e, false, "core.Mine/serial", 0, op, in.db, s.minSup, 1)
		disc = append(disc, d.secs)
		encs, errs = appendEncoded(encs, errs, d.res, err)
		if e.traced() {
			settle()
			d, err := mineDISC(e, true, "core.Mine/serial+obs", 0, op, in.db, s.minSup, 1)
			discT = append(discT, d.secs)
			layers.serial = append(layers.serial, d.keep())
			encs, errs = appendEncoded(encs, errs, d.res, err)
		}

		var res []byte
		settle()
		e.tr.call("result", 0, op, func(root int) {
			t0 := time.Now()
			var db mining.Database
			e.tr.call("data.ReadLimited", root, op, func(int) {
				db, err = data.ReadLimited(bytes.NewReader(in.body), data.Auto, data.Limits{})
			})
			if err != nil {
				return
			}
			ph.parse = append(ph.parse, time.Since(t0).Seconds())
			d, err = mineDISC(e, e.traced(), "core.Mine/parallel", root, op, db, s.minSup, e.nproc)
			par = append(par, d.secs)
			layers.par = append(layers.par, d.keep())
			if err != nil {
				return
			}
			t1 := time.Now()
			e.tr.call("jobs.WriteResult", root, op, func(int) { res, err = encodeResult(d.res) })
			ph.encode = append(ph.encode, time.Since(t1).Seconds())
			result = append(result, time.Since(t0).Seconds())
		})
		encs, errs = append(encs, res), append(errs, err)

		var pres *mining.Result
		settle()
		e.tr.call("prefixspan.Pseudo.Mine", 0, op, func(int) {
			t0 := time.Now()
			pres, err = prefixspan.Pseudo{}.Mine(in.db, s.minSup)
			pseudo = append(pseudo, time.Since(t0).Seconds())
		})
		encs, errs = appendEncoded(encs, errs, pres, err)
		var verdicts []error
		ref, verdicts = agree(encs, errs)
		for _, err := range verdicts {
			e.r.op(err)
		}
		last = time.Since(t)
	}
	e.r.notef("rounds = %d; every metric below is the median over the rounds", len(disc))
	for _, x := range []struct {
		name string
		s    sample
	}{{"disc_s", disc}, {"disc_par_s", par}, {"result_s", result}, {"pseudo_s", pseudo}} {
		e.r.notef("%s samples = %.4f", x.name, x.s)
	}

	discS, parS := disc.median(), par.median()
	e.r.set("disc_s", discS, "s")
	e.r.set("disc_par_s", parS, "s")
	e.r.set("result_s", result.median(), "s")
	e.r.set("alt_s", pseudo.median(), "s")
	e.r.notef("pseudo_s = %.4f s (n=%d)", pseudo.median(), len(pseudo))
	e.r.notef("%s", ratio{"pseudo_over_disc", "pseudo_s", "disc_s", pseudo.median(), discS, "s"})
	e.r.notef("%s", ratio{"pseudo_over_disc_par", "pseudo_s", "disc_par_s", pseudo.median(), parS, "s"})
	if !e.traced() {
		return nil
	}
	layers.report(e, discS, parS)
	overhead := ratio{"traced_over_untraced", "disc_s.traced", "disc_s", discT.median(), discS, "s"}
	e.r.set("trace.overhead", overhead.value()-1, "ratio")
	e.r.notef("%s", overhead)
	return jobsPass(e, in, s.minSup, ref, &ph)
}

// jobsPass sends the input through the service path twice, once mined
// and once from the result cache, so the traced run reports the jobs
// layer on this workload's database too. Both responses must equal the
// bytes the rounds agreed on.
func jobsPass(e *env, in input, minSup int, want []byte, ph *phases) error {
	svc, err := startService(e.workDir)
	if err != nil {
		return err
	}
	for k := 0; k < 2; k++ {
		o, err := svc.request(e.tr, e.tr.newOp(), in.body, minSup)
		if err == nil && o.digest != digest(want) {
			err = errors.New("service response differs from the direct mines")
		}
		if e.r.op(err) {
			ph.add(o)
		}
	}
	ph.report(e.r)
	return svc.stop()
}

func appendEncoded(encs [][]byte, errs []error, res *mining.Result, err error) ([][]byte, []error) {
	var b []byte
	if err == nil {
		b, err = encodeResult(res)
	}
	return append(encs, b), append(errs, err)
}

// agree returns the bytes most of the operations produced and one error
// per operation: its own failure, or a mismatch against those bytes.
func agree(encs [][]byte, errs []error) ([]byte, []error) {
	votes := map[string]int{}
	for i, b := range encs {
		if errs[i] == nil {
			votes[string(b)]++
		}
	}
	best, bestN := "", 0
	for b, n := range votes {
		if n > bestN {
			best, bestN = b, n
		}
	}
	out := make([]error, len(encs))
	for i, b := range encs {
		switch {
		case errs[i] != nil:
			out[i] = errs[i]
		case 2*bestN <= len(encs):
			out[i] = fmt.Errorf("no majority among %d results", len(encs))
		case string(b) != best:
			out[i] = fmt.Errorf("result %d differs from the majority (%d vs %d bytes)", i, len(b), len(best))
		}
	}
	return []byte(best), out
}
