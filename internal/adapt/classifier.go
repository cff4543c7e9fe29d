package adapt

import (
	"cachepart/internal/core"
	"cachepart/internal/engine"
	"cachepart/internal/resctrl"
)

// classify maps one epoch's telemetry window to the class the stream
// behaved as during that epoch. The streaming test is rate-based: a
// stream whose per-core DRAM traffic runs at a sizeable fraction of
// the machine's memory bandwidth cannot be reusing what it pulls,
// however large its occupancy reads — an unconfined scan fills the
// whole cache, so occupancy alone cannot separate it from an
// aggregation, but each scan core keeps DRAM several times busier
// than an aggregation core. Normalizing by the stream's worker-core
// count is what keeps one threshold valid across machine scales and
// stream widths. Quiet streams split on occupancy: resident working
// set means cache-sensitive, an empty cache means the stream is
// indifferent.
// A delta that follows failed samples spans Gap+1 epochs, so the rate
// divides by the full span — otherwise the accumulated traffic of the
// missed windows would read as one epoch's burst and misclassify a
// quiet stream as streaming the moment telemetry recovers.
func (c *Controller) classify(d resctrl.MonDelta, cores int) Class {
	rate := float64(d.MemBytesDelta) / (engine.ControlEpochSeconds * float64(d.Gap+1)) / float64(cores)
	if rate >= StreamingBandwidthFraction*c.peakBytesPerSecond {
		return Streaming
	}
	if float64(d.LLCOccupancyBytes) >= sensitiveOccupancyFraction*float64(c.llcBytes) {
		return CacheSensitive
	}
	return Neutral
}

// hintClass maps a job's CUID annotation to the class it seeds.
// Sensitive is the engine default for unannotated jobs, so it cannot
// be read as information and seeds Unknown — the controller infers.
// Depends is decided by the same bit-vector heuristic as the static
// policy.
func (c *Controller) hintClass(cuid core.CUID, fp core.Footprint) Class {
	switch cuid {
	case core.Polluting:
		return Streaming
	case core.Depends:
		if c.policy.DependsSensitive(fp) {
			return CacheSensitive
		}
		return Streaming
	default:
		return Unknown
	}
}

// streamState is the controller's per-stream memory. Streams are
// indexed by their position in the run's spec list, so all state
// lives in a slice and every epoch walks it in index order —
// deterministic by construction.
type streamState struct {
	group string
	// cores is the stream's worker-core count, the divisor that turns
	// its group's traffic into a per-core rate.
	cores int
	class Class
	// prevClass is the class the stream's last applied mask was
	// planned for, the From side of the next logged transition.
	prevClass Class

	// lastHint is the class the most recent annotation seeded;
	// a *changed* hint at a phase boundary re-seeds the class
	// (Com-CAS-style re-apportioning), an unchanged one is ignored so
	// telemetry verdicts are not fought every phase.
	lastHint Class

	// pending/streak debounce telemetry reclassification.
	pending Class
	streak  int

	// Probation of a confined stream: sinceTrial counts epochs since
	// the last one, nextTrial is the current (backed-off) interval,
	// trialLeft counts down the probation epochs, and trialObs holds
	// the last non-streaming class observed under the widened mask.
	sinceTrial int
	nextTrial  int
	trialLeft  int
	trialObs   Class
	// trialEnded flags the epoch a probation confirmed streaming, so
	// the restoring narrow write is logged as a trial step.
	trialEnded bool

	// degraded marks a stream whose control group could not be created
	// (CLOS exhaustion): the controller neither observes nor steers it,
	// and GroupFor routes its jobs to the engine's static path.
	degraded bool
}
