package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/data"
	"github.com/disc-mining/disc/internal/jobs"
	"github.com/disc-mining/disc/internal/obs"
)

// server is the HTTP face of a jobs.Manager. It owns nothing but the
// request/response mapping: admission decisions, deduplication,
// budgets, containment and checkpointing all live in the manager — the
// server translates its typed errors onto status codes.
type server struct {
	mgr     *jobs.Manager
	limits  data.Limits // per-line / per-sequence input limits
	maxBody int64       // request body cap (413 beyond it)
	workers int         // default per-job partition workers
	ready   atomic.Bool
	logf    func(format string, args ...any)
	// clusterDegraded, when set (coordinator role), reports whether the
	// coordinator's ledger durability is degraded; it feeds the
	// degraded_durability field of /healthz alongside the manager's own.
	clusterDegraded func() bool
}

func newServer(mgr *jobs.Manager, limits data.Limits, maxBody int64, workers int, logf func(string, ...any)) *server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &server{mgr: mgr, limits: limits, maxBody: maxBody, workers: workers, logf: logf}
	s.ready.Store(true)
	return s
}

// routes wires the service endpoints:
//
//	POST   /jobs             submit a database, get a job (idempotent by content)
//	GET    /jobs/{id}        job status
//	GET    /jobs/{id}/result mined patterns, text/plain, canonical order
//	DELETE /jobs/{id}        cancel
//	GET    /healthz          liveness + metrics (always 200 while serving)
//	GET    /readyz           admission readiness (503 while draining)
//	GET    /metrics          Prometheus text exposition of the shared registry
//	GET    /debug/jobs/{id}/timeline  the job's assembled fleet-wide trace timeline
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /debug/jobs/{id}/timeline", s.handleTimeline)
	mux.Handle("GET /metrics", obs.Handler(s.mgr.Registry()))
	return mux
}

// errJSON is the typed error payload. The taxonomy itself lives in
// internal/jobs (WireError) because the cluster shard protocol speaks
// it too; this alias keeps the server code and tests on their
// historical name.
type errJSON = jobs.WireError

// jobJSON is the status wire form.
type jobJSON struct {
	ID       string    `json:"id"`
	Algo     string    `json:"algo"`
	MinSup   int       `json:"minsup"`
	State    string    `json:"state"`
	Patterns int       `json:"patterns,omitempty"`
	Resumed  int       `json:"resumed,omitempty"`
	Error    *errJSON  `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Result   string    `json:"result,omitempty"` // URL of the result, once done
}

func statusJSON(st jobs.Status) jobJSON {
	out := jobJSON{
		ID: st.ID, Algo: st.Algo, MinSup: st.MinSup, State: string(st.State),
		Patterns: st.Patterns, Resumed: st.Resumed, Created: st.Created,
	}
	if st.Err != nil {
		out.Error = typedError(st.Err)
	}
	if st.State == jobs.StateDone {
		out.Result = "/jobs/" + st.ID + "/result"
	}
	return out
}

// typedError and failureCode are the shared jobs wire mappings under
// their historical server-local names.
func typedError(err error) *errJSON  { return jobs.TypedWireError(err) }
func failureCode(st jobs.Status) int { return jobs.FailureStatusCode(st) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *server) writeError(w http.ResponseWriter, code int, e *errJSON) {
	writeJSON(w, code, map[string]*errJSON{"error": e})
}

func (s *server) retryAfterHeader(w http.ResponseWriter) {
	secs := int(s.mgr.RetryAfter() / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// parseSubmit builds a jobs.Request from the query parameters and body.
func (s *server) parseSubmit(w http.ResponseWriter, r *http.Request) (jobs.Request, error) {
	q := r.URL.Query()
	req := jobs.Request{Algo: q.Get("algo")}
	opts := core.Options{BiLevel: true, Levels: 2, Workers: s.workers}

	get := func(key string, f func(string) error) error {
		if v := q.Get(key); v != "" {
			if err := f(v); err != nil {
				return fmt.Errorf("query parameter %q: %w", key, err)
			}
		}
		return nil
	}
	var minsup float64 = 0.01
	if err := errors.Join(
		get("minsup", func(v string) (err error) { minsup, err = strconv.ParseFloat(v, 64); return }),
		get("workers", func(v string) (err error) { opts.Workers, err = strconv.Atoi(v); return }),
		get("levels", func(v string) (err error) { opts.Levels, err = strconv.Atoi(v); return }),
		get("gamma", func(v string) (err error) { opts.Gamma, err = strconv.ParseFloat(v, 64); return }),
		get("bilevel", func(v string) (err error) { opts.BiLevel, err = strconv.ParseBool(v); return }),
		get("timeout", func(v string) (err error) { req.Timeout, err = time.ParseDuration(v); return }),
	); err != nil {
		return req, err
	}
	req.Opts = opts

	// The byte count disambiguates a parse failure caused by truncation
	// at the cap (a 413) from a genuinely malformed body (a 400): the
	// scanner hands the truncated tail to the parser before surfacing
	// the MaxBytesReader error, so the parse error alone can't tell.
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.maxBody)}
	db, err := data.ReadLimited(body, data.Auto, s.limits)
	if err != nil {
		if body.n >= s.maxBody {
			return req, fmt.Errorf("request body exceeds %d bytes: %w", s.maxBody, data.ErrInputTooLarge)
		}
		return req, err
	}
	if len(db) == 0 {
		return req, errors.New("empty database")
	}
	req.DB = db
	// minsup below 1 is a fraction of the database size, like discmine.
	if minsup < 1 {
		req.MinSup = int(minsup * float64(len(db)))
		if req.MinSup < 1 {
			req.MinSup = 1
		}
	} else {
		req.MinSup = int(minsup)
	}
	return req, nil
}

// countingReader tracks how many bytes the parser consumed.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := s.parseSubmit(w, r)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) || errors.Is(err, data.ErrInputTooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge, &errJSON{Kind: "input", Message: err.Error()})
			return
		}
		s.writeError(w, http.StatusBadRequest, &errJSON{Kind: "input", Message: err.Error()})
		return
	}

	j, err := s.mgr.Submit(req)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		s.retryAfterHeader(w)
		s.writeError(w, http.StatusTooManyRequests, &errJSON{Kind: "shed", Message: err.Error()})
		return
	case errors.Is(err, jobs.ErrDraining):
		s.retryAfterHeader(w)
		s.writeError(w, http.StatusServiceUnavailable, &errJSON{Kind: "draining", Message: err.Error()})
		return
	case err != nil:
		s.writeError(w, http.StatusBadRequest, &errJSON{Kind: "input", Message: err.Error()})
		return
	}

	if wait, _ := strconv.ParseBool(r.URL.Query().Get("wait")); wait {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			// The client went away; the job keeps running (another
			// identical submission can still attach to it).
			return
		}
	}
	st := j.Status()
	code := http.StatusAccepted
	if st.State.Terminal() {
		code = http.StatusOK
		if st.State != jobs.StateDone {
			code = failureCode(st)
		}
	}
	writeJSON(w, code, statusJSON(st))
}

func (s *server) job(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	j, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, &errJSON{Kind: "not_found", Message: err.Error()})
		return nil, false
	}
	return j, true
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, statusJSON(j.Status()))
	}
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	st := j.Status()
	switch st.State {
	case jobs.StateDone:
		res, _ := j.Result()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := jobs.WriteResult(w, res); err != nil {
			s.logf("discserve: writing result of %s: %v", st.ID, err)
		}
	case jobs.StateFailed, jobs.StateCanceled:
		s.writeError(w, failureCode(st), typedError(st.Err))
	default:
		// Not terminal yet: tell the client to come back.
		s.retryAfterHeader(w)
		s.writeError(w, http.StatusConflict, &errJSON{
			Kind: "not_ready", Message: fmt.Sprintf("job %s is %s", st.ID, st.State)})
	}
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.mgr.Cancel(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, &errJSON{Kind: "not_found", Message: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, statusJSON(j.Status()))
}

// handleTimeline serves the job's assembled flight-recorder timeline:
// every span and event the fleet recorded under the job's trace ID —
// coordinator shard spans, worker-side children folded back over the
// wire, engine partition spans — in one JSON document. The id is the
// job ID (the checkpoint fingerprint); /healthz lists the trace IDs of
// the jobs currently holding a recorder.
func (s *server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	tl, err := s.mgr.Timeline(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, &errJSON{Kind: "not_found", Message: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, tl)
}

// handleHealthz is liveness plus the metrics snapshot: it answers 200
// for as long as the process can serve at all — including during drain.
// Every number is sourced from the manager's registry instruments (the
// same ones /metrics renders); ready/draining/metrics are the original
// keys, kept for compatibility.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	byState := s.mgr.JobsByState()
	states := make(map[string]int, len(byState))
	for st, n := range byState {
		states[string(st)] = n
	}
	version, goVersion := obs.BuildVersion()
	storage := s.mgr.Durability()
	degraded := storage.Degraded
	if s.clusterDegraded != nil && s.clusterDegraded() {
		degraded = true
	}
	writeJSON(w, http.StatusOK, struct {
		Ready              bool                  `json:"ready"`
		Draining           bool                  `json:"draining"`
		DegradedDurability bool                  `json:"degraded_durability"`
		Storage            jobs.DurabilityStatus `json:"storage"`
		Metrics            jobs.Metrics          `json:"metrics"`
		QueueDepth         int                   `json:"queue_depth"`
		JobsByState        map[string]int        `json:"jobs_by_state"`
		ActiveTraces       []string              `json:"active_traces"`
		Build              struct {
			Version string `json:"version"`
			Go      string `json:"go"`
		} `json:"build"`
	}{
		Ready: s.ready.Load(), Draining: s.mgr.Draining(),
		DegradedDurability: degraded, Storage: storage,
		Metrics:    s.mgr.Metrics(),
		QueueDepth: s.mgr.QueueDepth(), JobsByState: states,
		ActiveTraces: s.mgr.ActiveTraces(),
		Build: struct {
			Version string `json:"version"`
			Go      string `json:"go"`
		}{version, goVersion},
	})
}

// handleReadyz is admission readiness: a load balancer stops routing
// here the moment shutdown starts, while in-flight jobs finish.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() || s.mgr.Draining() {
		s.retryAfterHeader(w)
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}
