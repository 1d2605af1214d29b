package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/disc-mining/disc"
	"github.com/disc-mining/disc/internal/cliutil"
	"github.com/disc-mining/disc/internal/faultinject"
)

func writeDB(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.txt")
	content := "1:(1 5 7)(2)(8)(6)(3)(2 6)\n2:(2)(4 6)(5)\n3:(2 6 7)\n4:(6)(1 7)(2 6 8)(2 6)\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMineFile(t *testing.T) {
	path := writeDB(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-minsup", "2", "-algo", "disc-all", "-stats"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "4 customers") {
		t.Errorf("missing database summary:\n%s", s)
	}
	if !strings.Contains(s, "56 frequent sequences") {
		t.Errorf("expected 56 frequent sequences (Table 1, δ=2):\n%s", s)
	}
	if !strings.Contains(s, "Rounds:") && !strings.Contains(s, "Rounds") {
		t.Errorf("missing stats:\n%s", s)
	}
}

func TestFractionalThresholdAndTop(t *testing.T) {
	path := writeDB(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-minsup", "0.5", "-top", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "δ=2") {
		t.Errorf("0.5 of 4 customers should give δ=2:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "more)") {
		t.Errorf("-top 3 should elide patterns:\n%s", out.String())
	}
}

// TestMinSupConversion mines the bodies of cmd/discserve's
// TestMinSupConversion and must report the same δ for every value the
// service accepts, and an error for every value it answers with 400.
func TestMinSupConversion(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		minsup string
		ncust  int
		delta  int // 0: must be rejected
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
		var db strings.Builder
		for c := 1; c <= tc.ncust; c++ {
			fmt.Fprintf(&db, "%d:(1)(2)\n", c)
		}
		path := filepath.Join(dir, fmt.Sprintf("chain%d.txt", tc.ncust))
		if err := os.WriteFile(path, []byte(db.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := run(context.Background(), []string{"-in", path, "-minsup", tc.minsup, "-workers", "1"}, &out)
		if tc.delta == 0 {
			if err == nil {
				t.Errorf("-minsup %s accepted:\n%s", tc.minsup, out.String())
			}
			continue
		}
		if err != nil {
			t.Errorf("-minsup %s: %v", tc.minsup, err)
			continue
		}
		if want := fmt.Sprintf("δ=%d", tc.delta); !strings.Contains(out.String(), want) {
			t.Errorf("-minsup %s over %d customers: want %s in\n%s", tc.minsup, tc.ncust, want, out.String())
		}
		if tc.delta > tc.ncust && !strings.Contains(out.String(), " 0 frequent sequences") {
			t.Errorf("-minsup %s: patterns above the database size:\n%s", tc.minsup, out.String())
		}
	}
}

func TestOutputFile(t *testing.T) {
	path := writeDB(t)
	outPath := filepath.Join(t.TempDir(), "patterns.txt")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-minsup", "2", "-o", outPath}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "support=") {
		t.Errorf("pattern file content:\n%s", data)
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{}, &out); err == nil {
		t.Error("missing -in must error")
	}
	if err := run(context.Background(), []string{"-in", "nope.txt"}, &out); err == nil {
		t.Error("missing file must error")
	}
	path := writeDB(t)
	if err := run(context.Background(), []string{"-in", path, "-algo", "bogus"}, &out); err == nil {
		t.Error("unknown algorithm must error")
	}
}

func TestAllAlgorithmsRunViaCLI(t *testing.T) {
	path := writeDB(t)
	for _, algo := range []string{"prefixspan", "pseudo", "gsp", "spade", "spam", "levelwise", "dynamic-disc-all"} {
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-in", path, "-minsup", "2", "-algo", algo}, &out); err != nil {
			t.Errorf("%s: %v", algo, err)
		}
		if !strings.Contains(out.String(), "56 frequent sequences") {
			t.Errorf("%s disagrees:\n%s", algo, out.String())
		}
	}
}

func TestWorkersFlag(t *testing.T) {
	path := writeDB(t)
	for _, workers := range []string{"1", "4"} {
		for _, algo := range []string{"disc-all", "dynamic-disc-all"} {
			var out bytes.Buffer
			if err := run(context.Background(), []string{"-in", path, "-minsup", "2", "-algo", algo, "-workers", workers}, &out); err != nil {
				t.Fatalf("%s -workers %s: %v", algo, workers, err)
			}
			if !strings.Contains(out.String(), "56 frequent sequences") {
				t.Errorf("%s -workers %s disagrees:\n%s", algo, workers, out.String())
			}
		}
	}
}

func TestTimeoutAndCancellation(t *testing.T) {
	path := writeDB(t)
	var out bytes.Buffer
	// A generous timeout on a tiny database must not interfere.
	if err := run(context.Background(), []string{"-in", path, "-minsup", "2", "-timeout", "1m"}, &out); err != nil {
		t.Fatal(err)
	}
	// A cancelled parent context (what SIGINT produces) aborts the run.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, []string{"-in", path, "-minsup", "2"}, &out); err != context.Canceled {
		t.Errorf("cancelled run = %v, want context.Canceled", err)
	}
	// An already-expired -timeout aborts the run with DeadlineExceeded:
	// the deadline passes while the database loads, long before mining.
	err := run(context.Background(), []string{"-in", path, "-minsup", "2", "-timeout", "1ns"}, &out)
	if err != context.DeadlineExceeded {
		t.Errorf("expired -timeout = %v, want DeadlineExceeded", err)
	}
}

// TestCheckpointFlagValidation covers the flag-combination errors.
func TestCheckpointFlagValidation(t *testing.T) {
	path := writeDB(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-minsup", "2", "-resume"}, &out); err == nil {
		t.Error("-resume without -checkpoint must error")
	}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	err := run(context.Background(), []string{"-in", path, "-minsup", "2", "-algo", "spade", "-checkpoint", ckpt}, &out)
	if err == nil {
		t.Error("-checkpoint with a non-disc-all algorithm must error")
	}
}

// TestInterruptWritesCheckpointExitCode2: a cancelled checkpointed run
// writes the checkpoint, reports the completed partition count, and
// surfaces exit code 2; a fresh -resume run then completes normally and
// retires the file.
func TestInterruptWritesCheckpointExitCode2(t *testing.T) {
	path := writeDB(t)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	err := run(ctx, []string{"-in", path, "-minsup", "2", "-checkpoint", ckpt}, &out)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled checkpointed run = %v, want wrapped context.Canceled", err)
	}
	var ec interface{ ExitCode() int }
	if !errors.As(err, &ec) || ec.ExitCode() != 2 {
		t.Fatalf("err %v does not carry exit code 2", err)
	}
	if !strings.Contains(out.String(), "completed partitions checkpointed") {
		t.Errorf("missing interruption report:\n%s", out.String())
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint file not written: %v", err)
	}

	out.Reset()
	if err := run(context.Background(), []string{"-in", path, "-minsup", "2", "-checkpoint", ckpt, "-resume"}, &out); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !strings.Contains(out.String(), "resuming:") || !strings.Contains(out.String(), "56 frequent sequences") {
		t.Errorf("resume output:\n%s", out.String())
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("completed run must retire the checkpoint, stat = %v", err)
	}
}

// TestResumeRestoresPartitions: a checkpoint with real completed
// partitions (produced by an injected mid-run interruption through the
// library) resumes through the CLI byte-identically to a straight run.
func TestResumeRestoresPartitions(t *testing.T) {
	path := writeDB(t)
	db, err := disc.ReadDatabase(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find an injection point that interrupts the run after at least one
	// first-level partition completed: with one worker the partition walk
	// is deterministic, so scan the boundary index upward.
	var cp *disc.Checkpointer
	for n := 2; ; n++ {
		if n > 64 {
			t.Fatal("no injection point left a partially completed run")
		}
		ctx, cancel := context.WithCancel(context.Background())
		opts := disc.DefaultOptions()
		opts.Workers = 1
		cp = disc.NewCheckpointer()
		opts.Checkpoint = cp
		inj := faultinject.New(1).
			Arm(faultinject.CtxCancel, faultinject.Spec{AfterN: n}).
			OnCancel(cancel)
		opts.Faults = inj
		_, err := disc.NewDISCAll(opts).MineContext(ctx, db, 2)
		cancel()
		if err != nil && cp.Completed() > 0 {
			break
		}
		if inj.Fired(faultinject.CtxCancel) == 0 {
			t.Fatal("run finished before any injection point interrupted it")
		}
	}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	fp := disc.CheckpointFingerprint(string(disc.DISCAll), disc.DefaultOptions(), 2, db)
	if _, err := cp.File(string(disc.DISCAll), 2, fp).WriteFile(ckpt); err != nil {
		t.Fatal(err)
	}

	var straight, resumed bytes.Buffer
	outA := filepath.Join(t.TempDir(), "straight.txt")
	outB := filepath.Join(t.TempDir(), "resumed.txt")
	if err := run(context.Background(), []string{"-in", path, "-minsup", "2", "-o", outA}, &straight); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-in", path, "-minsup", "2", "-checkpoint", ckpt, "-resume", "-o", outB}, &resumed); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resumed.String(), "resuming: restored") {
		t.Errorf("resume did not restore partitions:\n%s", resumed.String())
	}
	a, _ := os.ReadFile(outA)
	b, _ := os.ReadFile(outB)
	if !bytes.Equal(a, b) {
		t.Errorf("resumed pattern output differs from straight run")
	}
}

// TestResumeRejectsForeignCheckpoint: a checkpoint written by a different
// job (different δ here) must be rejected, not silently merged.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	path := writeDB(t)
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	if err := run(ctx, []string{"-in", path, "-minsup", "3", "-checkpoint", ckpt}, &out); err == nil {
		t.Fatal("expected interruption")
	}
	err := run(context.Background(), []string{"-in", path, "-minsup", "2", "-checkpoint", ckpt, "-resume"}, &out)
	if !errors.Is(err, disc.ErrCheckpointMismatch) {
		t.Fatalf("foreign checkpoint accepted: %v", err)
	}
	// Resuming with no checkpoint file on disk starts fresh.
	out.Reset()
	missing := filepath.Join(t.TempDir(), "none.ckpt")
	if err := run(context.Background(), []string{"-in", path, "-minsup", "2", "-checkpoint", missing, "-resume"}, &out); err != nil {
		t.Fatalf("missing checkpoint must start fresh: %v", err)
	}
	if !strings.Contains(out.String(), "starting fresh") {
		t.Errorf("missing fresh-start notice:\n%s", out.String())
	}
}

func TestVerifyFlag(t *testing.T) {
	path := writeDB(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-minsup", "2", "-verify", "spade"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "verified against spade") {
		t.Errorf("missing verification line:\n%s", out.String())
	}
	if err := run(context.Background(), []string{"-in", path, "-minsup", "2", "-verify", "bogus"}, &out); err == nil {
		t.Error("unknown verify algorithm must error")
	}
}

// TestSharedFlagsAccepted is the drift regression for the budget and
// checkpoint flag set shared with discserve: every name cliutil exports
// must parse here too. Reaching the "-in is required" error proves the
// flag vector itself was accepted.
func TestSharedFlagsAccepted(t *testing.T) {
	for _, name := range cliutil.SharedFlagNames() {
		var out bytes.Buffer
		err := run(context.Background(), []string{"-" + name + "=0"}, &out)
		if err == nil || err.Error() != "-in is required" {
			t.Errorf("shared flag -%s rejected: %v", name, err)
		}
	}
}
