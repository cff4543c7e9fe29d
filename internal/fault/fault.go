// Package fault is a seeded, deterministic fault-injection layer for
// the resctrl control plane. The simulator's FS never fails, but the
// kernel interface it models does: schemata writes return EBUSY or
// EINVAL, mkdir fails with ENOSPC when CLOSes or RMIDs are exhausted,
// writes to a tasks file race with exiting threads (ESRCH), and the
// CMT/MBM mon_data files read the literal strings "Unavailable" and
// "Error" while an RMID is in limbo or a domain counter is broken.
//
// Wrap interposes a Plane between the engine and the real mount and
// injects those failures with per-operation probabilities drawn from a
// seeded *rand.Rand. Faults are transient by default — a retry may
// succeed — and become persistent with Config.PersistentFraction
// probability, after which the same (operation, group) pair fails
// every time, the shape of a genuinely exhausted or broken resource.
//
// Determinism: all control-plane calls happen inside the engine's
// serial virtual-time loop, so the injector's random draws occur in a
// deterministic order and two runs with the same fault seed inject the
// identical schedule. A Plane is owned by one System, like the mount it
// wraps, so it holds no lock.
package fault

import (
	"fmt"
	"math/rand"

	"cachepart/internal/cat"
	"cachepart/internal/resctrl"
)

// Operation names used in Fault.Op and broken-breaker keys.
const (
	OpWriteSchemata = "WriteSchemata"
	OpMoveTask      = "MoveTask"
	OpMakeGroup     = "MakeGroup"
	OpSchedule      = "Schedule"
	OpReadMonData   = "ReadMonData"
)

// Fault is one injected control-plane failure. It records which
// operation on which group failed and which real-kernel failure it
// mirrors (an errno name, or the literal mon_data file content for
// monitoring reads).
type Fault struct {
	Op    string
	Group string
	// Errno names the mirrored kernel failure: EBUSY, ESRCH, ENOSPC,
	// EAGAIN, or the mon_data literals "Unavailable" / "Error".
	Errno string
	// Persistent marks a failure that will repeat on every retry of the
	// same operation on the same group.
	Persistent bool
}

// Error renders the fault in the shape of the mirrored syscall error.
func (f *Fault) Error() string {
	kind := "transient"
	if f.Persistent {
		kind = "persistent"
	}
	return fmt.Sprintf("fault: %s(%q): %s (injected, %s)", f.Op, f.Group, f.Errno, kind)
}

// Transient reports whether retrying the failed operation may succeed.
// The engine's retry loop classifies errors through this method.
func (f *Fault) Transient() bool { return !f.Persistent }

// Config sets the per-operation injection probabilities. The zero
// value injects nothing; Uniform builds a single-rate config.
type Config struct {
	// Seed drives the injection schedule. Two planes wrapping identical
	// inners with identical configs inject identical fault sequences.
	Seed int64

	// Per-operation probabilities in [0,1] that one call fails.
	WriteSchemata float64 // mirrors EBUSY: domain locked or mid-update
	MoveTask      float64 // mirrors ESRCH: the task raced an exit
	MakeGroup     float64 // mirrors ENOSPC: out of CLOSes or RMIDs
	Schedule      float64 // mirrors EAGAIN: the association IPI failed

	// MonUnavailable is the probability a monitoring read returns the
	// "Unavailable" file content: a transient RMID-limbo gap.
	MonUnavailable float64
	// MonError is the probability a monitoring read trips the sticky
	// "Error" state: the group's domain counter stays unreadable.
	MonError float64

	// PersistentFraction is the probability an injected control-plane
	// fault is persistent rather than transient, tripping the breaker
	// for its (operation, group) pair.
	PersistentFraction float64
}

// Uniform builds a config injecting every control-plane operation and
// monitoring read at the same rate, with one in ten faults persistent
// and sticky counter errors at a tenth of the gap rate.
func Uniform(rate float64, seed int64) Config {
	return Config{
		Seed:               seed,
		WriteSchemata:      rate,
		MoveTask:           rate,
		MakeGroup:          rate,
		Schedule:           rate,
		MonUnavailable:     rate,
		MonError:           rate / 10,
		PersistentFraction: 0.1,
	}
}

// Validate checks every probability is in [0,1].
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"WriteSchemata", c.WriteSchemata},
		{"MoveTask", c.MoveTask},
		{"MakeGroup", c.MakeGroup},
		{"Schedule", c.Schedule},
		{"MonUnavailable", c.MonUnavailable},
		{"MonError", c.MonError},
		{"PersistentFraction", c.PersistentFraction},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: %s rate %v out of [0,1]", p.name, p.v)
		}
	}
	return nil
}

// Stats counts what the plane injected.
type Stats struct {
	// Injected is the total number of failed calls, including repeats
	// served from tripped breakers.
	Injected int64
	// PersistentTrips is how many (operation, group) breakers tripped.
	PersistentTrips int64
	// MonFaults is how many monitoring reads failed.
	MonFaults int64
}

// Plane wraps a resctrl control plane with fault injection. Build one
// with Wrap; it implements resctrl.Plane.
type Plane struct {
	inner resctrl.Plane
	cfg   Config
	rng   *rand.Rand
	// broken holds tripped (operation, group) breakers. Accessed by
	// key only, never iterated.
	broken map[string]bool
	stats  Stats
}

var _ resctrl.Plane = (*Plane)(nil)

// Wrap interposes a fault injector over a control plane.
func Wrap(inner resctrl.Plane, cfg Config) (*Plane, error) {
	if inner == nil {
		return nil, fmt.Errorf("fault: nil inner plane")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Plane{
		inner:  inner,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		broken: make(map[string]bool),
	}, nil
}

// Inner returns the wrapped plane, for unwrapping after an experiment.
func (p *Plane) Inner() resctrl.Plane { return p.inner }

// Stats returns a snapshot of the injection counters.
func (p *Plane) Stats() Stats { return p.stats }

// maybeFail decides one call's fate. A tripped breaker fails without
// consuming randomness — the draw order over non-broken calls is what
// the determinism guarantee covers — and a fresh fault draws once for
// the injection and, when injected, once for persistence.
func (p *Plane) maybeFail(op, group string, rate float64, errno string) error {
	key := op + "\x00" + group
	if p.broken[key] {
		p.stats.Injected++
		return &Fault{Op: op, Group: group, Errno: errno, Persistent: true}
	}
	if rate <= 0 || p.rng.Float64() >= rate {
		return nil
	}
	p.stats.Injected++
	f := &Fault{Op: op, Group: group, Errno: errno}
	if p.cfg.PersistentFraction > 0 && p.rng.Float64() < p.cfg.PersistentFraction {
		f.Persistent = true
		p.broken[key] = true
		p.stats.PersistentTrips++
	}
	return f
}

// MakeGroup injects ENOSPC — the CLOS/RMID exhaustion mkdir surfaces —
// before delegating, so a failed call creates nothing.
func (p *Plane) MakeGroup(name string) error {
	if err := p.maybeFail(OpMakeGroup, name, p.cfg.MakeGroup, "ENOSPC"); err != nil {
		return err
	}
	return p.inner.MakeGroup(name)
}

// WriteSchemata injects EBUSY, the errno a schemata write returns when
// the domain is locked or another writer is mid-update.
func (p *Plane) WriteSchemata(groupName, schemata string) error {
	if err := p.maybeFail(OpWriteSchemata, groupName, p.cfg.WriteSchemata, "EBUSY"); err != nil {
		return err
	}
	return p.inner.WriteSchemata(groupName, schemata)
}

// Mask passes through (read-only).
func (p *Plane) Mask(groupName string) (cat.WayMask, error) { return p.inner.Mask(groupName) }

// MoveTask injects ESRCH, the tasks-file write failure when the TID
// raced an exit.
func (p *Plane) MoveTask(tid int, groupName string) error {
	if err := p.maybeFail(OpMoveTask, groupName, p.cfg.MoveTask, "ESRCH"); err != nil {
		return err
	}
	return p.inner.MoveTask(tid, groupName)
}

// GroupOf passes through (read-only).
func (p *Plane) GroupOf(tid int) string { return p.inner.GroupOf(tid) }

// Schedule injects EAGAIN — a failed association on the context-switch
// path. Schedule faults are always transient: the next dispatch of the
// task retries the association, so no breaker is kept. The group key
// is the task's current group so the draw stays group-attributed.
func (p *Plane) Schedule(tid, core int) error {
	if p.cfg.Schedule > 0 && p.rng.Float64() < p.cfg.Schedule {
		p.stats.Injected++
		return &Fault{Op: OpSchedule, Group: p.inner.GroupOf(tid), Errno: "EAGAIN"}
	}
	return p.inner.Schedule(tid, core)
}

// Writes passes through (read-only).
func (p *Plane) Writes() int { return p.inner.Writes() }

// ReadMonData injects the kernel's two non-numeric mon_data file
// states: a transient "Unavailable" gap and the sticky per-group
// "Error" counter failure. Both are returned wrapping the resctrl
// sentinels so errors.Is sees through the injection layer.
func (p *Plane) ReadMonData(groupName string) (resctrl.MonData, error) {
	key := OpReadMonData + "\x00" + groupName
	switch {
	case p.broken[key]:
		p.stats.Injected++
		p.stats.MonFaults++
		return resctrl.MonData{}, fmt.Errorf("%w (injected, persistent)", resctrl.ErrCounter)
	case p.cfg.MonError > 0 && p.rng.Float64() < p.cfg.MonError:
		p.broken[key] = true
		p.stats.Injected++
		p.stats.MonFaults++
		p.stats.PersistentTrips++
		return resctrl.MonData{}, fmt.Errorf("%w (injected, persistent)", resctrl.ErrCounter)
	case p.cfg.MonUnavailable > 0 && p.rng.Float64() < p.cfg.MonUnavailable:
		p.stats.Injected++
		p.stats.MonFaults++
		return resctrl.MonData{}, fmt.Errorf("%w (injected)", resctrl.ErrUnavailable)
	}
	return p.inner.ReadMonData(groupName)
}
