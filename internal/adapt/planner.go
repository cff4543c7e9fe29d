package adapt

import (
	"cachepart/internal/cat"
	"cachepart/internal/resctrl"
)

// maskFor plans the capacity mask for a class: Streaming with a
// beneficiary to protect is confined to the narrow low slice (the
// static scheme's polluting portion, so steady workloads converge to
// the paper's masks), everything else keeps the full cache. Unknown
// deliberately maps to the full mask — the controller must never make
// an unclassified stream slower than an unpartitioned run would.
func (c *Controller) maskFor(class Class, confine bool) cat.WayMask {
	if class == Streaming && confine {
		return cat.PortionMask(c.ways, StreamingWaysFraction)
	}
	return cat.FullMask(c.ways)
}

// program writes a stream's group schemata if — and only if — the
// target mask differs from what the group is already programmed with.
// This controller-level elision is what makes quiescent epochs cost
// zero writes: the resctrl model, like the kernel, does not elide
// schemata writes itself.
//
// An injected write fault (EBUSY) is absorbed, not propagated: the
// group keeps its previous mask — a safe, merely stale partitioning —
// and because the mask then still differs from the plan, the next
// epoch's elision check retries the write without any extra machinery.
func (c *Controller) program(st *streamState, mask cat.WayMask) (bool, error) {
	cur, err := c.fs.Mask(st.group)
	if err != nil {
		return false, err
	}
	if cur == mask {
		return false, nil
	}
	if err := c.fs.WriteSchemata(st.group, resctrl.FormatSchemata(mask)); err != nil {
		if injected(err) {
			c.writeFailures++
			return false, nil
		}
		return false, err
	}
	return true, nil
}
