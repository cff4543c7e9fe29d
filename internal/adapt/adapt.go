// Package adapt is an online feedback controller that reprograms CAT
// masks from CMT/MBM telemetry, the dynamic counterpart of the static
// CUID→mask scheme in internal/core. The paper derives its
// partitioning scheme offline (Section V-B) and notes in the outlook
// (Section VIII) that production systems want the masks adjusted at
// runtime; this package closes that loop in the spirit of LFOC's
// occupancy/traffic classifier and Com-CAS's phase-boundary
// re-apportioning.
//
// Every control epoch of *virtual* time the controller samples each
// stream's resctrl monitoring group — llc_occupancy and the
// mbm_total_bytes delta over the epoch, via resctrl.MonWindow — and
// classifies the stream's current behaviour:
//
//   - Streaming: the stream's per-core DRAM traffic runs at a sizeable
//     fraction of the machine's memory bandwidth — it pulls new lines
//     far faster than it could possibly reuse them (the column scan).
//     It is confined to a small slice of the cache, the same slice the
//     static scheme gives Polluting jobs.
//   - CacheSensitive: little fresh traffic but substantial occupancy —
//     the stream lives off its resident working set (the grouped
//     aggregation). It keeps the full cache.
//   - Neutral: neither; the full mask, since a job that touches little
//     cache cannot pollute it.
//
// Classification changes are debounced by a hysteresis streak, and a
// stream confined as Streaming is periodically put on *probation*:
// its mask is widened for a few epochs and only kept narrow if the
// traffic stays stream-like. Probation is what recovers a stream whose
// behaviour changed mid-query (a join switching from build to probe):
// inside a too-small partition a reuse-heavy job thrashes and looks
// exactly like a scan, so the controller must widen to tell them
// apart. Probation intervals back off exponentially so a genuine scan
// is not repeatedly handed the whole cache.
//
// CUID annotations, when present, seed the classification (Polluting
// plans straight into the narrow slice; a Depends join is decided by
// the same bit-vector heuristic as the static policy), and a changed
// annotation at a phase boundary re-seeds it. Telemetry then
// overrides in either direction, which is what lets the controller
// beat a mis-annotated workload and infer classes for an unannotated
// one. On a steady, correctly-annotated workload the controller
// converges to exactly the static scheme's masks and — thanks to
// redundant-write elision — performs zero schemata writes in
// quiescent epochs.
//
// The controller runs inside the engine's serial virtual-time loop
// (see engine.Controller), so it needs no locking and its decisions
// are bit-identical across same-seed runs.
package adapt

import (
	"fmt"

	"cachepart/internal/cat"
)

// Class is the controller's behavioural classification of a stream.
type Class int

const (
	// Unknown is the initial class before any telemetry or annotation;
	// it plans the full mask so an unclassified stream can never
	// regress.
	Unknown Class = iota
	// Neutral streams touch too little cache to matter either way.
	Neutral
	// CacheSensitive streams live off a resident working set.
	CacheSensitive
	// Streaming streams pull fresh lines far faster than they reuse
	// them and are confined to a narrow slice.
	Streaming
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Unknown:
		return "unknown"
	case Neutral:
		return "neutral"
	case CacheSensitive:
		return "cache-sensitive"
	case Streaming:
		return "streaming"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// The controller's constants. LFOC shows a classifier with fixed
// thresholds is enough, and no figure, example or benchmark runs
// another value of any of them.
const (
	// hysteresis is how many consecutive epochs telemetry must suggest
	// a different class before the controller commits it.
	hysteresis = 2

	// StreamingBandwidthFraction classifies an epoch as stream-like
	// when the stream's average DRAM traffic rate over the epoch,
	// divided by its worker-core count, exceeds this fraction of the
	// machine's DRAM bandwidth. The rate is the discriminator occupancy
	// cannot provide: an unconfined scan fills the whole cache just
	// like a resident working set, but only a scan keeps DRAM busy at a
	// sizeable share of peak per core — data arriving that fast cannot
	// be getting reused out of the cache. The per-core normalization
	// keeps one threshold valid across machine scales and stream
	// widths: measured per-core rates are ~5-7 GB/s for the column scan
	// and ~1.1 GB/s for the 40 MiB-dictionary aggregation at both 1/32
	// and 1/8 scale, so 0.035 of 64 GB/s ≈ 2.2 GB/s per core sits
	// about 2× from either. The serving tier's completion-granular
	// polluter classifier uses the same bound.
	StreamingBandwidthFraction = 0.035

	// sensitiveOccupancyFraction classifies a quiet epoch as
	// cache-sensitive when the stream's occupancy exceeds this
	// fraction of the LLC, and as neutral below it.
	sensitiveOccupancyFraction = 0.05

	// StreamingWaysFraction is the slice of the cache a Streaming
	// stream is confined to: the static policy's polluting fraction, so
	// the controller converges to the paper's scheme.
	StreamingWaysFraction = 0.10

	// trialInterval is how many epochs a stream stays confined before
	// its first probation; trialLength is how many epochs a probation
	// lasts. trialBackoff multiplies the interval after each probation
	// that confirms the stream is still streaming, bounded by
	// trialIntervalMax.
	trialInterval    = 32
	trialLength      = 2
	trialBackoff     = 2
	trialIntervalMax = 128
)

// Config carries no settings: the controller's values are the
// constants above. The type and DefaultConfig remain only because the
// repository benchmark attaches the controller through them.
type Config struct{}

// DefaultConfig returns the empty Config; see Config.
func DefaultConfig() Config { return Config{} }

// Transition records one mask reprogramming: which stream, between
// which classes, onto which mask, and whether it was a probation step
// rather than a committed reclassification.
type Transition struct {
	// Epoch is the control epoch of the write, or -1 for
	// annotation-seeded reprogrammings, which happen at phase
	// boundaries between epochs.
	Epoch  int
	Stream int
	From   Class
	To     Class
	Mask   cat.WayMask
	// Trial marks probation mask changes: the widening at probation
	// start and the narrowing back when it confirms streaming.
	Trial bool
	// Written reports whether the step performed a real schemata
	// write; class changes whose planned mask was already in place are
	// logged with Written false.
	Written bool
}
