// Command discmine mines frequent sequences from a database file with any
// of the implemented algorithms.
//
// Usage:
//
//	discmine -in db.txt -minsup 0.005 [-algo disc-all] [-workers 4] [-timeout 30s] [-top 20] [-stats] [-o patterns.txt]
//
// minsup below 1 is a fraction of the database size; at or above 1 it is
// the absolute minimum support count δ (a count above the database size
// mines nothing). NaN, infinities and values at or below 0 are rejected.
// discserve converts its minsup parameter the same way.
//
// -workers bounds the partition worker pool of the disc-all variants
// (0 = one worker per CPU; the mined result is identical at every
// setting). -timeout aborts the run after the given duration; Ctrl-C
// (SIGINT) aborts it immediately.
//
// With -checkpoint <path>, an interrupted disc-all run writes the
// completed first-level partitions to <path>, reports how many finished,
// and exits with code 2; rerunning with -resume restores them and mines
// only the unfinished partitions — the final result is byte-identical to
// an uninterrupted run. -checkpoint-interval additionally snapshots the
// checkpoint periodically while the run is in flight.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"time"

	"github.com/disc-mining/disc"
	"github.com/disc-mining/disc/internal/cliutil"
	"github.com/disc-mining/disc/internal/obs"
)

// exitError carries a specific process exit code out of run.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return e.err.Error() }
func (e *exitError) Unwrap() error { return e.err }
func (e *exitError) ExitCode() int { return e.code }

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "discmine:", err)
		code := 1
		var ec interface{ ExitCode() int }
		if errors.As(err, &ec) {
			code = ec.ExitCode()
		}
		os.Exit(code)
	}
}

// minerFor builds the requested algorithm, threading the full options into
// the disc-all variants (the only engines that honour them).
func minerFor(algo disc.Algorithm, opts disc.Options) (disc.Miner, error) {
	switch algo {
	case disc.DISCAll:
		return disc.NewDISCAll(opts), nil
	case disc.DynamicDISCAll:
		return disc.NewDynamicDISCAll(opts), nil
	}
	return disc.NewMiner(algo)
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("discmine", flag.ContinueOnError)
	in := fs.String("in", "", "input database (native or SPMF format)")
	algo := fs.String("algo", string(disc.DISCAll), fmt.Sprintf("algorithm: %v", disc.Algorithms()))
	minsup := fs.Float64("minsup", 0.01, "minimum support: fraction (<1) or absolute count (>=1)")
	workers := fs.Int("workers", 0, "partition worker pool size for disc-all variants (0 = one per CPU)")
	timeout := fs.Duration("timeout", 0, "abort mining after this duration (0 = no limit)")
	top := fs.Int("top", 0, "print only the top-N patterns by support (0 = all)")
	stats := fs.Bool("stats", false, "print DISC run statistics (disc-all variants only)")
	verify := fs.String("verify", "", "re-mine with this second algorithm and require identical results")
	out := fs.String("o", "", "write patterns to this file instead of stdout")
	ckptPath := fs.String("checkpoint", "", "write a resumable checkpoint here when the run is interrupted (disc-all variants)")
	resume := fs.Bool("resume", false, "restore completed partitions from the -checkpoint file, if it exists")
	metricsOut := fs.String("metrics-out", "", "dump the run's metrics in Prometheus text format to this file on exit (\"-\" = stdout)")
	trace := fs.Bool("trace", false, "stream hierarchical span records (trace/span/parent IDs) as JSON lines to stderr")
	shared := cliutil.RegisterShared(fs) // -max-patterns, -max-mem-bytes, -checkpoint-interval
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}

	// Observability: one observer for the whole invocation. The metrics
	// dump is deferred so an interrupted run (exit code 2) still reports
	// what it did — the batch counterpart of scraping discserve.
	var observer *obs.Observer
	if *metricsOut != "" || *trace {
		observer = obs.NewObserver()
		obs.RegisterBuildInfo(observer.Registry)
		if *trace {
			// The CLI mints its own trace: every streamed span record
			// carries the same trace_id plus span/parent IDs, so one run's
			// hierarchy reads exactly like a discserve job timeline.
			observer.Tracer.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
			src := obs.NewIDSource(0)
			tc := obs.NewTraceContext(src.TraceID(), "discmine", src, obs.NewRecorder(0))
			observer = observer.WithTrace(tc, 0)
		}
		if *metricsOut != "" {
			defer func() {
				if err := dumpMetrics(observer, *metricsOut, stdout); err != nil {
					fmt.Fprintln(os.Stderr, "discmine: writing metrics:", err)
				}
			}()
		}
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	db, err := disc.ReadDatabase(*in)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "loaded %s\n", disc.DescribeDatabase(db))

	delta, err := cliutil.Delta(*minsup, len(db))
	if err != nil {
		return err
	}
	algorithm := disc.Algorithm(*algo)
	opts := disc.DefaultOptions()
	opts.Workers = *workers
	opts.Obs = observer
	shared.Apply(&opts)

	// Checkpoint/resume wiring. The fingerprint binds the checkpoint file
	// to this exact job (algorithm, options, δ, database content), so a
	// checkpoint can never silently poison a different run's results.
	var cp *disc.Checkpointer
	var fp uint64
	if *ckptPath != "" {
		if algorithm != disc.DISCAll && algorithm != disc.DynamicDISCAll {
			return fmt.Errorf("-checkpoint requires a disc-all variant, not %q", algorithm)
		}
		fp = disc.CheckpointFingerprint(string(algorithm), opts, delta, db)
		cp = disc.NewCheckpointer()
		if *resume {
			switch f, err := disc.ReadCheckpoint(*ckptPath); {
			case errors.Is(err, os.ErrNotExist):
				fmt.Fprintf(stdout, "no checkpoint at %s, starting fresh\n", *ckptPath)
			case err != nil:
				return err
			case f.Algo != string(algorithm) || f.MinSup != delta || f.Fingerprint != fp:
				return fmt.Errorf("%w: %s belongs to a different job", disc.ErrCheckpointMismatch, *ckptPath)
			default:
				cp = disc.ResumeCheckpoint(f)
				fmt.Fprintf(stdout, "resuming: restored %d completed partitions from %s\n", len(f.Partitions), *ckptPath)
			}
		}
		opts.Checkpoint = cp
	} else if *resume {
		return fmt.Errorf("-resume requires -checkpoint")
	}

	m, err := minerFor(algorithm, opts)
	if err != nil {
		return err
	}

	if cp != nil && shared.CheckpointInterval > 0 {
		tick := time.NewTicker(shared.CheckpointInterval)
		done := make(chan struct{})
		defer close(done)
		defer tick.Stop()
		go func() {
			for {
				select {
				case <-tick.C:
					// Snapshot whatever has completed; failures are retried
					// at the next tick and on interruption.
					_, _ = cp.File(string(algorithm), delta, fp).WriteFile(*ckptPath)
				case <-done:
					return
				}
			}
		}()
	}

	start := time.Now()
	res, err := disc.AsContextMiner(m).MineContext(ctx, db, delta)
	if err != nil {
		if cp != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			f := cp.File(string(algorithm), delta, fp)
			if _, werr := f.WriteFile(*ckptPath); werr != nil {
				return fmt.Errorf("interrupted, and writing the checkpoint failed: %v (run error: %w)", werr, err)
			}
			fmt.Fprintf(stdout, "interrupted: %d completed partitions checkpointed to %s\n", len(f.Partitions), *ckptPath)
			return &exitError{code: 2, err: fmt.Errorf("%w; rerun with -resume to continue", err)}
		}
		return err
	}
	if cp != nil {
		// The run finished: the checkpoint is obsolete.
		os.Remove(*ckptPath)
	}
	fmt.Fprintf(stdout, "%s: %s in %.3fs (δ=%d)\n", m.Name(), res, time.Since(start).Seconds(), delta)

	if *verify != "" {
		vopts := opts
		vopts.Checkpoint = nil
		v, err := minerFor(disc.Algorithm(*verify), vopts)
		if err != nil {
			return err
		}
		vStart := time.Now()
		vRes, err := disc.AsContextMiner(v).MineContext(ctx, db, delta)
		if err != nil {
			return err
		}
		if diff := res.Diff(vRes); diff != "" {
			return fmt.Errorf("verification against %s FAILED:\n%s", v.Name(), diff)
		}
		fmt.Fprintf(stdout, "verified against %s in %.3fs: identical results\n", v.Name(), time.Since(vStart).Seconds())
	}

	if *stats {
		if sm, ok := m.(interface{ LastStats() disc.Stats }); ok {
			fmt.Fprintf(stdout, "stats: %+v\n", sm.LastStats())
		} else {
			fmt.Fprintf(stdout, "stats: not available for %s\n", m.Name())
		}
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		bw := bufio.NewWriter(f)
		defer bw.Flush()
		w = bw
	}
	printed := 0
	for _, pc := range res.Sorted() {
		if *top > 0 && printed >= *top {
			fmt.Fprintf(w, "... (%d more)\n", res.Len()-printed)
			break
		}
		fmt.Fprintf(w, "%s support=%d\n", pc.Pattern, pc.Support)
		printed++
	}
	return nil
}

// dumpMetrics renders the observer's registry in the Prometheus text
// exposition format to path ("-" selects stdout).
func dumpMetrics(o *obs.Observer, path string, stdout io.Writer) error {
	if path == "-" {
		return o.Registry.WriteText(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.Registry.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
