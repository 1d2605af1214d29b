package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/data"
	"github.com/disc-mining/disc/internal/faultinject"
	"github.com/disc-mining/disc/internal/jobs"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/testutil"
)

// testServer stands up the full handler stack over a manager with cfg.
func testServer(t *testing.T, cfg jobs.Config, limits data.Limits, maxBody int64) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	if maxBody == 0 {
		maxBody = 64 << 20
	}
	mgr := jobs.NewManager(cfg)
	srv := newServer(mgr, limits, maxBody, 2, t.Logf)
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Drain(ctx)
	})
	return ts, mgr
}

// dbBody renders db in the native text format, as a client would POST it.
func dbBody(t *testing.T, db mining.Database) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := data.Write(&b, db, data.Native); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// table1Body is the paper's Table 1 database (56 frequent sequences at δ=2).
func table1Body(t *testing.T) []byte { return dbBody(t, testutil.Table1()) }

func post(t *testing.T, ts *httptest.Server, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func del(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func decodeJob(t *testing.T, body []byte) jobJSON {
	t.Helper()
	var j jobJSON
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatalf("bad job JSON %q: %v", body, err)
	}
	return j
}

func decodeErr(t *testing.T, body []byte) errJSON {
	t.Helper()
	var e struct {
		Error errJSON `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("bad error JSON %q: %v", body, err)
	}
	return e.Error
}

func TestSubmitWaitAndFetchResult(t *testing.T) {
	ts, _ := testServer(t, jobs.Config{Workers: 2}, data.Limits{}, 0)

	resp, body := post(t, ts, "/jobs?minsup=2&wait=1", table1Body(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	j := decodeJob(t, body)
	if j.State != "done" || j.Patterns != 56 {
		t.Fatalf("job = %+v, want done with the paper's 56 patterns", j)
	}

	resp, body = get(t, ts, j.Result)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d: %s", resp.StatusCode, body)
	}
	ref, err := (&core.Miner{Opts: core.Options{BiLevel: true, Levels: 2}}).Mine(testutil.Table1(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := jobs.WriteResult(&want, ref); err != nil {
		t.Fatal(err)
	}
	if string(body) != want.String() {
		t.Errorf("service result diverges from engine output:\ngot\n%s\nwant\n%s", body, want.String())
	}

	// Idempotent resubmission: same bytes, same id, served from cache.
	resp, body = post(t, ts, "/jobs?minsup=2&wait=1", table1Body(t))
	if resp.StatusCode != http.StatusOK || decodeJob(t, body).ID != j.ID {
		t.Fatalf("resubmission = %d %s, want cache hit on %s", resp.StatusCode, body, j.ID)
	}
}

func TestAsyncSubmitPollCancel(t *testing.T) {
	// A dense generated database keeps the worker busy long enough to
	// observe the queued/running states and land a cancellation.
	r := rand.New(rand.NewSource(7))
	dense := testutil.SkewedRandomDB(r, 400, 14, 10, 6)
	ts, _ := testServer(t, jobs.Config{Workers: 1}, data.Limits{}, 0)

	resp, body := post(t, ts, "/jobs?minsup=2", dbBody(t, dense))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	j := decodeJob(t, body)
	if j.State != "queued" && j.State != "running" {
		t.Fatalf("fresh job state = %s", j.State)
	}

	resp, body = get(t, ts, "/jobs/"+j.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	// The result is not ready: 409 with a retry hint.
	resp, body = get(t, ts, "/jobs/"+j.ID+"/result")
	if st := decodeJob(t, body).State; resp.StatusCode != http.StatusConflict && st != "done" {
		t.Fatalf("early result fetch = %d (state %s)", resp.StatusCode, st)
	}

	resp, body = del(t, ts, "/jobs/"+j.ID)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel = %d: %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body = get(t, ts, "/jobs/"+j.ID)
		st := decodeJob(t, body)
		if st.State == "canceled" || st.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never terminated: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, body = del(t, ts, "/jobs/no-such-job")
	if resp.StatusCode != http.StatusNotFound || decodeErr(t, body).Kind != "not_found" {
		t.Fatalf("cancel unknown = %d %s", resp.StatusCode, body)
	}
}

func TestOversizedInputRejected413(t *testing.T) {
	t.Run("body", func(t *testing.T) {
		ts, _ := testServer(t, jobs.Config{}, data.Limits{}, 16)
		resp, body := post(t, ts, "/jobs?minsup=2", table1Body(t))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized body = %d: %s", resp.StatusCode, body)
		}
		if decodeErr(t, body).Kind != "input" {
			t.Fatalf("payload = %s, want kind input", body)
		}
	})
	t.Run("line", func(t *testing.T) {
		ts, _ := testServer(t, jobs.Config{}, data.Limits{MaxLineBytes: 16}, 0)
		resp, body := post(t, ts, "/jobs?minsup=2", table1Body(t))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized line = %d: %s", resp.StatusCode, body)
		}
	})
	// The server survives both rejections.
	ts, _ := testServer(t, jobs.Config{}, data.Limits{}, 0)
	if resp, body := post(t, ts, "/jobs?minsup=2&wait=1", table1Body(t)); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy submit after rejections = %d: %s", resp.StatusCode, body)
	}
}

func TestBadRequests400(t *testing.T) {
	ts, _ := testServer(t, jobs.Config{}, data.Limits{}, 0)
	for _, tc := range []struct {
		name, path string
		body       string
	}{
		{"malformed minsup", "/jobs?minsup=lots", "1:(1)(2)\n"},
		{"malformed body", "/jobs?minsup=1", "1:(((\n"},
		{"empty body", "/jobs?minsup=1", ""},
		{"unknown algo", "/jobs?minsup=1&algo=quantum", "1:(1)(2)\n"},
	} {
		resp, body := post(t, ts, tc.path, []byte(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s = %d: %s", tc.name, resp.StatusCode, body)
		}
		if decodeErr(t, body).Kind != "input" {
			t.Errorf("%s payload = %s, want kind input", tc.name, body)
		}
	}
	if resp, _ := get(t, ts, "/jobs/ffffffffffffffff"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", resp.StatusCode)
	}
}

// chainBody is a database of n customers that each bought item 1 and
// then item 2: it mines in microseconds at any threshold.
func chainBody(n int) []byte {
	var b bytes.Buffer
	for c := 1; c <= n; c++ {
		fmt.Fprintf(&b, "%d:(1)(2)\n", c)
	}
	return b.Bytes()
}

// TestMinSupConversion pins the service's minsup handling to discmine's
// (cmd/discmine TestMinSupConversion mines the same bodies): invalid
// values answer 400 instead of mining at δ = 1, fractions round like
// discmine's, and a count above the database size mines nothing.
func TestMinSupConversion(t *testing.T) {
	ts, _ := testServer(t, jobs.Config{Workers: 1}, data.Limits{}, 0)
	for _, tc := range []struct {
		minsup string
		ncust  int
		delta  int // 0: must be rejected with 400
	}{
		{"NaN", 3, 0},
		{"Inf", 3, 0},
		{"-Inf", 3, 0},
		{"-3", 3, 0},
		{"0", 3, 0},
		{"1e30", 3, 4},
		{"0.5", 3, 2},
		{"2", 3, 2},
		{"0.29", 100, 29},
		{"0.0075", 1000, 8},
	} {
		resp, body := post(t, ts, "/jobs?wait=1&minsup="+tc.minsup, chainBody(tc.ncust))
		if tc.delta == 0 {
			if resp.StatusCode != http.StatusBadRequest || decodeErr(t, body).Kind != "input" {
				t.Errorf("minsup=%s: %d %s, want 400 kind input", tc.minsup, resp.StatusCode, body)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("minsup=%s: %d %s", tc.minsup, resp.StatusCode, body)
			continue
		}
		j := decodeJob(t, body)
		if j.State != "done" || j.MinSup != tc.delta {
			t.Errorf("minsup=%s over %d customers: job %+v, want done at δ=%d", tc.minsup, tc.ncust, j, tc.delta)
		}
		if tc.delta > tc.ncust && j.Patterns != 0 {
			t.Errorf("minsup=%s: %d patterns above the database size", tc.minsup, j.Patterns)
		}
	}
}

func TestQueueFullSheds429WithRetryAfter(t *testing.T) {
	slow := func(i int) []byte {
		return dbBody(t, testutil.SkewedRandomDB(rand.New(rand.NewSource(int64(i))), 400, 14, 10, 6))
	}
	ts, _ := testServer(t, jobs.Config{Workers: 1, QueueDepth: 1, RetryAfter: 7 * time.Second}, data.Limits{}, 0)

	// Job 1 occupies the worker, job 2 the single queue slot.
	_, b1 := post(t, ts, "/jobs?minsup=2", slow(1))
	j1 := decodeJob(t, b1)
	deadline := time.Now().Add(30 * time.Second)
	for decodeJob(t, func() []byte { _, b := get(t, ts, "/jobs/"+j1.ID); return b }()).State != "running" {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, b2 := post(t, ts, "/jobs?minsup=2", slow(2))
	j2 := decodeJob(t, b2)

	// Job 3 is shed: 429 plus the configured Retry-After hint.
	resp, body := post(t, ts, "/jobs?minsup=2", slow(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want 7", got)
	}
	if decodeErr(t, body).Kind != "shed" {
		t.Errorf("payload = %s, want kind shed", body)
	}

	// A duplicate of an in-flight job still gets in: dedup is free.
	resp, body = post(t, ts, "/jobs?minsup=2", slow(1))
	if resp.StatusCode != http.StatusAccepted || decodeJob(t, body).ID != j1.ID {
		t.Errorf("duplicate during overload = %d %s, want attach to %s", resp.StatusCode, body, j1.ID)
	}

	for _, id := range []string{j1.ID, j2.ID} {
		del(t, ts, "/jobs/"+id)
	}
}

// TestWorkerPanicTypedPayloadProcessKeepsServing is the acceptance
// criterion: an injected worker panic fails that one job with a 5xx
// carrying the typed invariant payload, and the process keeps serving.
func TestWorkerPanicTypedPayloadProcessKeepsServing(t *testing.T) {
	inj := faultinject.New(1).Arm(faultinject.WorkerPanic, faultinject.Spec{AfterN: 1})
	ts, _ := testServer(t, jobs.Config{Workers: 1, Faults: inj}, data.Limits{}, 0)

	resp, body := post(t, ts, "/jobs?minsup=2&wait=1", table1Body(t))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked job = %d: %s", resp.StatusCode, body)
	}
	j := decodeJob(t, body)
	if j.State != "failed" || j.Error == nil || j.Error.Kind != "invariant" {
		t.Fatalf("panicked job payload = %s, want failed with kind invariant", body)
	}
	if j.Error.Partition == "" {
		t.Errorf("invariant payload lost the partition: %s", body)
	}
	// Fetching the failed job's result repeats the typed error.
	resp, body = get(t, ts, "/jobs/"+j.ID+"/result")
	if resp.StatusCode != http.StatusInternalServerError || decodeErr(t, body).Kind != "invariant" {
		t.Fatalf("failed result fetch = %d %s", resp.StatusCode, body)
	}

	// The process keeps serving: health is up and the next job (distinct
	// content — a failed fingerprint would resume) completes.
	if resp, body := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic = %d: %s", resp.StatusCode, body)
	}
	other := dbBody(t, testutil.SkewedRandomDB(rand.New(rand.NewSource(9)), 30, 8, 5, 3))
	resp, body = post(t, ts, "/jobs?minsup=2&wait=1", other)
	if resp.StatusCode != http.StatusOK || decodeJob(t, body).State != "done" {
		t.Fatalf("job after panic = %d %s, want done", resp.StatusCode, body)
	}
	// And the panicked job itself heals on resubmission (the injector
	// was one-shot): robustness means the failure is not sticky.
	resp, body = post(t, ts, "/jobs?minsup=2&wait=1", table1Body(t))
	if resp.StatusCode != http.StatusOK || decodeJob(t, body).Patterns != 56 {
		t.Fatalf("resubmitted panicked job = %d %s, want done with 56 patterns", resp.StatusCode, body)
	}
}

// TestInjectedCancelCheckpointsAndResumes drives the cancel → checkpoint
// → resubmit → resume path through the HTTP surface.
func TestInjectedCancelCheckpointsAndResumes(t *testing.T) {
	db := testutil.SkewedRandomDB(rand.New(rand.NewSource(92)), 90, 12, 6, 4)
	body := dbBody(t, db)
	dir := t.TempDir()

	inj := faultinject.New(60).Arm(faultinject.CtxCancel, faultinject.Spec{AfterN: 60})
	ts, _ := testServer(t, jobs.Config{Workers: 1, CheckpointDir: dir, Faults: inj}, data.Limits{}, 0)

	resp, out := post(t, ts, "/jobs?minsup=2&wait=1", body)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("interrupted job = %d: %s", resp.StatusCode, out)
	}
	j := decodeJob(t, out)
	if j.State != "canceled" || j.Error == nil || j.Error.Kind != "canceled" {
		t.Fatalf("interrupted payload = %s, want canceled", out)
	}

	// Resubmit the identical bytes: the job resumes from its checkpoint
	// and the result matches a straight engine run exactly.
	resp, out = post(t, ts, "/jobs?minsup=2&wait=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit = %d: %s", resp.StatusCode, out)
	}
	j2 := decodeJob(t, out)
	if j2.State != "done" || j2.Resumed == 0 {
		t.Fatalf("resubmitted job = %s, want done with restored partitions", out)
	}
	ref, err := (&core.Miner{Opts: core.Options{BiLevel: true, Levels: 2, Workers: 2}}).Mine(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := jobs.WriteResult(&want, ref); err != nil {
		t.Fatal(err)
	}
	_, res := get(t, ts, "/jobs/"+j2.ID+"/result")
	if string(res) != want.String() {
		t.Errorf("resumed result diverges from straight run")
	}
}

// TestFlakyRequestBodyDoesNotWedgeServer feeds the server a request body
// that fails mid-read (a flaky client connection) and verifies the
// request errors out while the server keeps serving.
func TestFlakyRequestBodyDoesNotWedgeServer(t *testing.T) {
	ts, _ := testServer(t, jobs.Config{Workers: 1}, data.Limits{}, 0)

	inj := faultinject.New(3).Arm(faultinject.DataRead, faultinject.Spec{AfterN: 1})
	flaky := inj.FlakyReader(bytes.NewReader(table1Body(t)))
	resp, err := http.Post(ts.URL+"/jobs?minsup=2", "text/plain", io.NopCloser(flaky))
	if err == nil {
		// The transport surfaced the body error as a response instead:
		// it must be a client-side 4xx/5xx, never a hung request.
		defer resp.Body.Close()
		if resp.StatusCode < 400 {
			t.Fatalf("flaky body accepted with %d", resp.StatusCode)
		}
	}

	// Server intact after the aborted upload.
	resp2, body := post(t, ts, "/jobs?minsup=2&wait=1", table1Body(t))
	if resp2.StatusCode != http.StatusOK || decodeJob(t, body).State != "done" {
		t.Fatalf("submit after flaky upload = %d %s", resp2.StatusCode, body)
	}
}

func TestReadyzFlipsOnDrainHealthzStaysUp(t *testing.T) {
	ts, mgr := testServer(t, jobs.Config{}, data.Limits{}, 0)

	if resp, body := get(t, ts, "/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d: %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := mgr.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, _ := get(t, ts, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining readyz lost its Retry-After hint")
	}
	// Liveness stays green — the process is healthy, just not admitting.
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain = %d", resp.StatusCode)
	}
	var h struct {
		Draining bool         `json:"draining"`
		Metrics  jobs.Metrics `json:"metrics"`
	}
	if err := json.Unmarshal(body, &h); err != nil || !h.Draining {
		t.Fatalf("healthz payload = %s (err=%v), want draining true", body, err)
	}
	// Submissions are refused with the draining taxonomy.
	respS, bodyS := post(t, ts, "/jobs?minsup=2", table1Body(t))
	if respS.StatusCode != http.StatusServiceUnavailable || decodeErr(t, bodyS).Kind != "draining" {
		t.Fatalf("submit during drain = %d %s", respS.StatusCode, bodyS)
	}
}

// TestHealthzMetricsProgress sanity-checks the counters a dashboard
// would alert on.
func TestHealthzMetricsProgress(t *testing.T) {
	ts, _ := testServer(t, jobs.Config{Workers: 1}, data.Limits{}, 0)
	post(t, ts, "/jobs?minsup=2&wait=1", table1Body(t))
	post(t, ts, "/jobs?minsup=2&wait=1", table1Body(t)) // cache hit
	_, body := get(t, ts, "/healthz")
	var h struct {
		Metrics jobs.Metrics `json:"metrics"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Metrics.Submitted != 1 || h.Metrics.CacheHits != 1 || h.Metrics.Done != 1 {
		t.Fatalf("metrics = %+v", h.Metrics)
	}
}
