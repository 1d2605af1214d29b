// Package cliutil holds the plumbing shared by the mining binaries
// (discmine and discserve): the resource-budget and checkpoint-cadence
// knobs are registered through one function with one set of names,
// defaults and help strings, and the minimum-support value is converted
// to δ by one function, so the two binaries cannot drift apart.
package cliutil

import (
	"flag"
	"fmt"
	"math"
	"time"

	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/mining"
)

// Delta converts a minimum-support value into the absolute threshold δ
// over a database of n customers. A value below 1 is a fraction of n,
// rounded as mining.AbsSupport rounds it; a value at or above 1 is an
// absolute count (its fractional part dropped), and a count above n
// becomes n+1, a threshold no pattern can reach. NaN, infinities and
// values at or below 0 are rejected.
func Delta(minsup float64, n int) (int, error) {
	if math.IsNaN(minsup) || math.IsInf(minsup, 0) || minsup <= 0 {
		return 0, fmt.Errorf("minsup must be a positive finite number, got %v", minsup)
	}
	if minsup < 1 {
		return mining.AbsSupport(minsup, n), nil
	}
	if minsup > float64(n) {
		return n + 1, nil
	}
	return int(minsup), nil
}

// SharedFlags are the budget/checkpoint settings every mining binary
// exposes under identical flag names.
type SharedFlags struct {
	// MaxPatterns is the soft budget on discovered patterns (-max-patterns).
	MaxPatterns int
	// MaxMemBytes is the soft heap budget in bytes (-max-mem-bytes).
	MaxMemBytes int64
	// CheckpointInterval is the periodic checkpoint snapshot cadence
	// (-checkpoint-interval); 0 snapshots only on interruption.
	CheckpointInterval time.Duration
}

// RegisterShared registers the shared flags on fs and returns the struct
// their parsed values land in.
func RegisterShared(fs *flag.FlagSet) *SharedFlags {
	s := &SharedFlags{}
	fs.IntVar(&s.MaxPatterns, "max-patterns", 0,
		"soft budget on discovered patterns; the run degrades near it and fails past it (0 = unbounded)")
	fs.Int64Var(&s.MaxMemBytes, "max-mem-bytes", 0,
		"soft heap budget in bytes with the same degradation ladder (0 = unbounded)")
	fs.DurationVar(&s.CheckpointInterval, "checkpoint-interval", 0,
		"additionally snapshot the checkpoint at this interval (0 = only on interruption)")
	return s
}

// Apply copies the budget settings into engine options.
func (s *SharedFlags) Apply(o *core.Options) {
	o.MaxPatterns = s.MaxPatterns
	o.MaxMemBytes = s.MaxMemBytes
}

// SharedFlagNames lists the names RegisterShared defines. The regression
// tests of both binaries iterate it to prove each binary accepts every
// shared flag.
func SharedFlagNames() []string {
	return []string{"max-patterns", "max-mem-bytes", "checkpoint-interval"}
}
