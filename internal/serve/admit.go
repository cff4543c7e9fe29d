package serve

// admit: the admission rule. Every arrival that survives the breaker
// and the shed policy enters its tenant's bounded FIFO at its arrival
// tick, in trace order, or is dropped when the queue is full; rejected
// queries are counted as drops, never silently lost.

// DropReason classifies a rejected arrival. Every dropped attempt is
// counted under exactly one reason — deadline expiry and breaker
// rejection are distinct reasons, never lumped into tail-drop — so the
// report's accounting identity attempts == completed + Σ drops holds
// per tenant.
type DropReason int

const (
	// DropQueueFull: the tenant's bounded FIFO was at capacity.
	DropQueueFull DropReason = iota
	// DropDeadline: the query expired in queue past its tenant's SLO
	// deadline before a dispatch group picked it up.
	DropDeadline
	// DropShed: the overload-control shedding policy rejected the
	// arrival under queue pressure.
	DropShed
	// DropBreaker: the tenant's circuit breaker was open (or half-open
	// with its probe outstanding).
	DropBreaker
)

// String names the reason for reports and CLI output.
func (r DropReason) String() string {
	switch r {
	case DropQueueFull:
		return "queue-full"
	case DropDeadline:
		return "deadline"
	case DropShed:
		return "shed"
	case DropBreaker:
		return "breaker"
	default:
		return "unknown"
	}
}
