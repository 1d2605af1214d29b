package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/disc-mining/disc/internal/data"
	"github.com/disc-mining/disc/internal/gen"
	"github.com/disc-mining/disc/internal/mining"
)

const (
	serviceCustomers = 1000
	serviceClients   = 2 // closed loop: each client waits for its reply
	resendShare      = 0.25
	recentShare      = 0.75 // of resends, the share that repeats one of the last few bodies
	recentWindow     = 4
	checkBodies      = 5 // fresh results re-mined directly and compared
)

// tableBody generates Table 13 body i (generator seed i+1, the same for
// every run seed), presents it in an order drawn from the run seed,
// serialises it and parses it back.
func tableBody(seed int64, i int) ([]byte, error) {
	cfg := gen.DenseDefaults(serviceCustomers)
	cfg.Seed = int64(i) + 1
	db, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	body, err := serialise(present(db, seed*1_000_003+int64(i)))
	if err != nil {
		return nil, err
	}
	_, err = data.ReadLimited(bytes.NewReader(body), data.Auto, data.Limits{})
	return body, err
}

// schedule decides, request by request, which body is sent. The choice
// depends only on the request's position, so a seed always yields the
// same request sequence whichever client sends each request.
type schedule struct {
	mu    sync.Mutex
	rng   *rand.Rand
	sent  []int
	fresh int
	limit int // fresh bodies available
}

func (s *schedule) next() (body int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	resend, recent, pick := s.rng.Float64(), s.rng.Float64(), s.rng.Int63()
	switch n := len(s.sent); {
	case n >= 2 && resend < resendShare && recent < recentShare:
		body = s.sent[n-1-int(pick%int64(min(recentWindow, n)))]
	case n >= 2 && resend < resendShare:
		body = s.sent[pick%int64(n)]
	case s.fresh < s.limit:
		body = s.fresh
		s.fresh++
	default:
		return 0, false
	}
	s.sent = append(s.sent, body)
	return body, true
}

// directMine is one DISC-all mine of a served body, outside the timed
// window.
type directMine struct {
	name    string
	traced  bool
	workers int
	into    *sample
}

// served is one completed request.
type served struct {
	body    int
	traced  bool
	sweep   bool // sent by the hit sweep after the closed loop
	outcome outcome
	err     error
}

// runService measures the service workload: two closed-loop clients
// post fresh Table 13 bodies, a quarter of them resent byte for byte.
func runService(e *env) error {
	minSup := mining.AbsSupport(0.0075, serviceCustomers)
	// Enough fresh bodies for the run: mined requests complete at about
	// 1.3 per second on two CPUs.
	nFresh := max(2*checkBodies, int(2*e.seconds.Seconds()))
	bodies := make([][]byte, nFresh)
	var setup sample
	for i := range bodies {
		t := time.Now()
		b, err := tableBody(e.seed, i)
		if err != nil {
			return err
		}
		bodies[i] = b
		setup = append(setup, time.Since(t).Seconds())
	}
	e.r.set("setup_s", setup.median(), "s")
	e.r.notef("setup_s samples = %d bodies (generate, present, serialise, parse one body), minsup = %d", len(setup), minSup)

	t := time.Now()
	svc, err := startService(e.workDir)
	if err != nil {
		return err
	}
	warm, err := tableBody(e.seed, nFresh)
	if err == nil {
		_, err = svc.request(nil, 0, warm, minSup)
	}
	if !e.r.op(err) {
		return errors.Join(err, svc.stop())
	}
	e.r.notef("manager start + warm-up request = %.4f s", time.Since(t).Seconds())

	sched := &schedule{rng: rand.New(rand.NewSource(e.seed)), limit: nFresh}
	var mu sync.Mutex
	var done []served
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < e.seconds {
				b, ok := sched.next()
				if !ok {
					return
				}
				// The traced run alternates traced and untraced requests
				// to measure the tracing overhead.
				mu.Lock()
				traced := e.traced() && len(done)%2 == 0
				mu.Unlock()
				tr := e.tr
				if !traced {
					tr = nil
				}
				o, err := svc.request(tr, e.tr.newOp(), bodies[b], minSup)
				mu.Lock()
				done = append(done, served{body: b, traced: traced, outcome: o, err: err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	loop := len(done)

	// The hit sweep resends every body once, one request at a time, with
	// nothing mining: the cache-hit path measured without contention.
	sent := map[int]bool{}
	for _, s := range done[:loop] {
		if !sent[s.body] {
			sent[s.body] = true
			settle()
			o, err := svc.request(e.tr, e.tr.newOp(), bodies[s.body], minSup)
			if err == nil && o.kind != hit {
				err = fmt.Errorf("sweep request for body %d was %s, not a cache hit", s.body, o.kind)
			}
			done = append(done, served{body: s.body, sweep: true, outcome: o, err: err})
		}
	}
	if err := svc.stop(); err != nil {
		return err
	}

	// Every response must equal the first response for its body.
	first := map[int][32]byte{}
	var req, reqT, hits, sweep sample
	var ph phases
	kinds := map[string]int{}
	for i, s := range done {
		err := s.err
		if err == nil {
			if d, ok := first[s.body]; !ok {
				first[s.body] = s.outcome.digest
			} else if d != s.outcome.digest {
				err = fmt.Errorf("response %d for body %d differs from its first response", i, s.body)
			}
		}
		if !e.r.op(err) {
			continue
		}
		o := s.outcome
		if s.sweep {
			sweep = append(sweep, o.latency)
			continue
		}
		kinds[o.kind]++
		ph.add(o)
		switch {
		case o.kind == mined && s.traced:
			reqT = append(reqT, o.latency)
		case o.kind == mined:
			req = append(req, o.latency)
		case o.kind == hit:
			hits = append(hits, o.latency)
		}
	}
	e.r.notef("requests = %d (mined %d, hit %d, attached %d) in %.2f s",
		loop, kinds[mined], kinds[hit], kinds[attached], elapsed)
	e.r.latencyLines("req_s", req, 90)
	e.r.latencyLines("hit_s", hits)
	e.r.latencyLines("hit_s.sweep", sweep)
	e.r.notef("req_per_s = %.4f 1/s (%d requests / %.2f s)", float64(loop)/elapsed, loop, elapsed)
	e.r.set("result_s", req.median(), "s")
	e.r.set("alt_s", sweep.median(), "s")
	e.r.notef("%s", ratio{"req_over_hit", "req_s.p50", "hit_s.sweep.p50", req.median(), sweep.median(), "s"})

	// Re-mine the first fresh bodies directly, outside the timed window:
	// serial DISC-all must match the served bytes. The traced run adds a
	// parallel mine and an observed serial mine of each.
	var disc, discT, par sample
	var layers discLayers
	for b := 0; b < checkBodies && b < sched.fresh; b++ {
		db, err := data.ReadLimited(bytes.NewReader(bodies[b]), data.Auto, data.Limits{})
		if err != nil {
			return err
		}
		op := e.tr.newOp()
		runs := []directMine{{"core.Mine/serial", false, 1, &disc}}
		if e.traced() {
			runs = append(runs,
				directMine{"core.Mine/parallel", false, e.nproc, &par},
				directMine{"core.Mine/serial+obs", true, 1, &discT})
		}
		for _, r := range runs {
			settle()
			d, err := mineDISC(e, r.traced, r.name, 0, op, db, minSup, r.workers)
			var enc []byte
			if err == nil {
				enc, err = encodeResult(d.res)
			}
			if err == nil && digest(enc) != first[b] {
				err = fmt.Errorf("served result of body %d differs from a direct %s", b, r.name)
			}
			if e.r.op(err) {
				*r.into = append(*r.into, d.secs)
				switch {
				case r.traced:
					layers.serial = append(layers.serial, d.keep())
				case r.workers > 1:
					layers.par = append(layers.par, d.keep())
				}
			}
		}
	}
	// The parallel mine is the one inside each mined job: engine Workers
	// 0, from Status.Started to Status.Finished.
	e.r.notef("disc_s: median of %d direct serial mines; disc_par_s: median jobs.run_s of %d mined requests", len(disc), len(ph.run))
	e.r.set("disc_s", disc.median(), "s")
	e.r.set("disc_par_s", ph.run.median(), "s")
	if !e.traced() {
		return nil
	}
	layers.report(e, disc.median(), ph.run.median())
	ph.report(e.r)
	e.r.set("trace.overhead", reqT.median()/req.median()-1, "ratio")
	e.r.notef("%s", ratio{"traced_over_untraced", "req_s.p50.traced", "req_s.p50", reqT.median(), req.median(), "s"})
	return nil
}
