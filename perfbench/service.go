package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/data"
	"github.com/disc-mining/disc/internal/jobs"
)

// service is the POST /jobs path composed in process the way
// cmd/discserve composes it: data.ReadLimited under discserve's default
// limits, jobs.Manager.Submit, a wait on Job.Done, jobs.WriteResult.
type service struct {
	mgr *jobs.Manager
	dir string
}

// startService starts a manager deployed as the README deploys it: a
// checkpoint directory, 30s snapshots, a 1e6-pattern budget, a 10m job
// deadline and one job worker.
func startService(workDir string) (*service, error) {
	dir, err := os.MkdirTemp(workDir, "ckpt-")
	if err != nil {
		return nil, err
	}
	mgr := jobs.NewManager(jobs.Config{
		Workers:            1,
		CheckpointDir:      dir,
		CheckpointInterval: 30 * time.Second,
		MaxPatterns:        1_000_000,
		JobTimeout:         10 * time.Minute,
	})
	return &service{mgr: mgr, dir: dir}, nil
}

// stop drains the manager and removes its checkpoint directory.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.mgr.Drain(ctx)
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// How a request was served.
const (
	mined    = "mined"    // this request admitted the job that mined its result
	hit      = "hit"      // served from a job that had finished before the request
	attached = "attached" // joined a queued or running identical job
)

// outcome is one request as the client saw it, with its phases.
type outcome struct {
	kind                  string
	latency               float64 // body handed to the parser -> last result byte
	parse, submit, encode float64
	queueWait, run        float64 // mined requests only
	digest                [32]byte
	size                  int
}

// request sends one body through the service path with engine Workers 0
// (discserve's -workers default) and absolute support minSup.
func (s *service) request(tr *tracer, op int, body []byte, minSup int) (outcome, error) {
	var o outcome
	var err error
	tr.call("request", 0, op, func(root int) {
		var req jobs.Request
		var j *jobs.Job
		var out []byte
		start := time.Now()
		tr.call("data.ReadLimited", root, op, func(int) {
			req.DB, err = data.ReadLimited(bytes.NewReader(body), data.Auto, data.Limits{})
		})
		if err != nil {
			return
		}
		o.parse = time.Since(start).Seconds()
		req.MinSup = minSup
		req.Opts = core.Options{BiLevel: true, Levels: 2, Workers: 0}
		t := time.Now()
		tr.call("jobs.Submit", root, op, func(int) { j, err = s.mgr.Submit(req) })
		if err != nil {
			return
		}
		o.submit = time.Since(t).Seconds()
		st := j.Status()
		switch {
		case !st.Created.Before(start):
			o.kind = mined
		case !st.Finished.IsZero() && st.Finished.Before(start):
			o.kind = hit
		default:
			o.kind = attached
		}
		tr.call("jobs.wait", root, op, func(int) { <-j.Done() })
		st = j.Status()
		if st.State != jobs.StateDone {
			err = fmt.Errorf("job %s ended %s: %v", st.ID, st.State, st.Err)
			return
		}
		if o.kind == mined {
			o.queueWait = st.Started.Sub(st.Created).Seconds()
			o.run = st.Finished.Sub(st.Started).Seconds()
		}
		res, _ := j.Result()
		t = time.Now()
		tr.call("jobs.WriteResult", root, op, func(int) { out, err = encodeResult(res) })
		o.encode = time.Since(t).Seconds()
		o.latency = time.Since(start).Seconds()
		o.digest, o.size = digest(out), len(out)
	})
	return o, err
}

// phases aggregates the jobs-layer view of a set of requests.
type phases struct {
	parse, submit, encode, queueWait, run sample
	requests, served                      int // served = without mining
	bytes                                 sample
}

func (p *phases) add(o outcome) {
	p.requests++
	p.parse = append(p.parse, o.parse)
	p.submit = append(p.submit, o.submit)
	p.encode = append(p.encode, o.encode)
	p.bytes = append(p.bytes, float64(o.size))
	if o.kind == mined {
		p.queueWait = append(p.queueWait, o.queueWait)
		p.run = append(p.run, o.run)
	} else {
		p.served++
	}
}

// report sets the data and jobs layer metrics as medians per request.
func (p *phases) report(r *report) {
	r.set("data.parse_s", p.parse.median(), "s")
	r.set("jobs.submit_s", p.submit.median(), "s")
	r.set("jobs.queue_wait_s", p.queueWait.median(), "s")
	r.set("jobs.run_s", p.run.median(), "s")
	r.set("jobs.encode_s", p.encode.median(), "s")
	r.set("jobs.result_mb", p.bytes.mean()/(1<<20), "MB")
	hr := ratio{"jobs.hit_ratio", "served_without_mining", "requests", float64(p.served), float64(p.requests), "count"}
	r.set("jobs.hit_ratio", hr.value(), "ratio")
	r.notef("%s", hr)
	r.notef("jobs phases: n=%d requests (parse, submit, encode), n=%d mined (queue_wait, run)", p.requests, len(p.run))
}
