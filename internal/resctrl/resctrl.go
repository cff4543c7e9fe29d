// Package resctrl simulates the Linux kernel's resctrl pseudo
// filesystem (kernel 4.10+), the interface the paper uses to integrate
// CAT into the DBMS (Section V-C, Figure 8). Control groups are
// directories; each holds a `schemata` file ("L3:0=<hexmask>") and a
// `tasks` file listing thread ids. The engine moves job-worker TIDs
// between groups; on a context switch the (simulated) scheduler
// programs the core's CLOS from the task's group.
package resctrl

import (
	"fmt"
	"strconv"
	"strings"

	"cachepart/internal/cat"
)

// RootGroup is the name of the default control group every task starts
// in; it maps to CLOS 0 with the full capacity mask.
const RootGroup = ""

// FS is a mounted resctrl filesystem bound to one socket's CAT
// registers. It is owned by one System, whose serial loop makes every
// call, so it holds no lock.
type FS struct {
	regs    *cat.Registers
	groups  map[string]*group
	tasks   map[int]string // TID -> group name
	writes  int
	monitor Monitor // optional CMT/MBM backend
}

type group struct {
	clos int
	mask cat.WayMask
}

// Mount creates the filesystem over a register file. The root group is
// bound to CLOS 0 with the full mask, mirroring the kernel.
func Mount(regs *cat.Registers) *FS {
	return &FS{
		regs:   regs,
		groups: map[string]*group{RootGroup: {clos: 0, mask: cat.FullMask(regs.NumWays())}},
		tasks:  make(map[int]string),
	}
}

// MakeGroup creates a control group, allocating the next free CLOS.
// The new group starts with the full capacity mask, like `mkdir` under
// /sys/fs/resctrl. Groups are never removed, so the CLOSes in use are
// exactly 0 through len(groups)-1.
func (fs *FS) MakeGroup(name string) error {
	if name == RootGroup || strings.ContainsAny(name, "/\x00") {
		return fmt.Errorf("resctrl: invalid group name %q", name)
	}
	if _, ok := fs.groups[name]; ok {
		return fmt.Errorf("resctrl: group %q exists", name)
	}
	clos := len(fs.groups)
	if clos >= fs.regs.NumCLOS() {
		return fmt.Errorf("resctrl: out of CLOS (%d in use)", clos)
	}
	full := cat.FullMask(fs.regs.NumWays())
	if err := fs.regs.SetMask(clos, full); err != nil {
		return err
	}
	fs.groups[name] = &group{clos: clos, mask: full}
	return nil
}

// WriteSchemata programs a group's L3 mask from the kernel's textual
// format, e.g. "L3:0=fffff".
func (fs *FS) WriteSchemata(groupName, schemata string) error {
	mask, err := ParseSchemata(schemata, fs.regs.NumWays())
	if err != nil {
		return err
	}
	g, ok := fs.groups[groupName]
	if !ok {
		return fmt.Errorf("resctrl: no group %q", groupName)
	}
	if err := fs.regs.SetMask(g.clos, mask); err != nil {
		return err
	}
	g.mask = mask
	fs.writes++
	return nil
}

// Mask reports a group's current capacity mask.
func (fs *FS) Mask(groupName string) (cat.WayMask, error) {
	g, ok := fs.groups[groupName]
	if !ok {
		return 0, fmt.Errorf("resctrl: no group %q", groupName)
	}
	return g.mask, nil
}

// MoveTask writes a TID into a group's tasks file. Moving a task to
// the group it is already in is a no-op that performs no register
// write, which is the redundant-write elision the paper implements in
// the engine (Section V-C).
func (fs *FS) MoveTask(tid int, groupName string) error {
	if _, ok := fs.groups[groupName]; !ok {
		return fmt.Errorf("resctrl: no group %q", groupName)
	}
	if fs.tasks[tid] == groupName {
		return nil
	}
	fs.tasks[tid] = groupName
	fs.writes++
	return nil
}

// GroupOf reports the group a task belongs to (root if never moved).
func (fs *FS) GroupOf(tid int) string {
	return fs.tasks[tid]
}

// Schedule is the kernel scheduler hook: when task tid is dispatched on
// a core, the core's CLOS register is updated to the task's group, as
// the resctrl documentation describes for context switches.
func (fs *FS) Schedule(tid, core int) error {
	g := fs.groups[fs.tasks[tid]]
	if g == nil {
		g = fs.groups[RootGroup]
	}
	if fs.regs.CLOSOf(core) == g.clos {
		return nil
	}
	return fs.regs.Associate(core, g.clos)
}

// Writes reports how many state-changing writes (schemata and task
// moves) the filesystem has absorbed, for overhead accounting.
func (fs *FS) Writes() int {
	return fs.writes
}

// ParseSchemata parses the kernel's "L3:0=<hexmask>" format. Multiple
// whitespace-separated or semicolon-separated domain clauses are
// accepted, but only cache id 0 is meaningful on the single-socket
// machine the paper uses.
func ParseSchemata(schemata string, ways int) (cat.WayMask, error) {
	s := strings.TrimSpace(schemata)
	rest, ok := strings.CutPrefix(s, "L3:")
	if !ok {
		return 0, fmt.Errorf("resctrl: schemata %q must start with \"L3:\"", s)
	}
	var mask cat.WayMask
	found := false
	for _, clause := range strings.FieldsFunc(rest, func(r rune) bool { return r == ';' || r == ' ' }) {
		id, val, ok := strings.Cut(clause, "=")
		if !ok {
			return 0, fmt.Errorf("resctrl: malformed clause %q", clause)
		}
		if strings.TrimSpace(id) != "0" {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(val), 16, 32)
		if err != nil {
			return 0, fmt.Errorf("resctrl: bad mask %q: %v", val, err)
		}
		mask = cat.WayMask(v)
		found = true
	}
	if !found {
		return 0, fmt.Errorf("resctrl: schemata %q has no clause for cache id 0", s)
	}
	if mask == 0 {
		return 0, fmt.Errorf("resctrl: empty mask")
	}
	if mask&^cat.FullMask(ways) != 0 {
		return 0, fmt.Errorf("resctrl: mask %v exceeds %d ways", mask, ways)
	}
	if !mask.Contiguous() {
		return 0, fmt.Errorf("resctrl: mask %v not contiguous", mask)
	}
	return mask, nil
}

// FormatSchemata renders a mask in the kernel's schemata format.
func FormatSchemata(mask cat.WayMask) string {
	return fmt.Sprintf("L3:0=%x", uint32(mask))
}
