package resctrl

import "cachepart/internal/cat"

// Plane is the control-plane surface of a resctrl mount: everything the
// engine and an online controller do to groups, schemata, tasks and
// monitoring files. *FS implements it directly; internal/fault wraps
// one Plane in another to inject the failures a real kernel produces
// (EBUSY on schemata writes, ENOSPC when CLOSes run out, Unavailable
// monitoring reads), so the layers above are written against the
// interface rather than the concrete filesystem.
//
// Read-only calls (Mask, GroupOf, Writes) are part of the interface
// but are never fault-injected: the kernel's failure modes live on the
// write paths and the monitoring files.
type Plane interface {
	// MakeGroup creates a control group, allocating a CLOS (mkdir).
	MakeGroup(name string) error
	// WriteSchemata programs a group's L3 mask ("L3:0=<hexmask>").
	WriteSchemata(groupName, schemata string) error
	// Mask reports a group's current capacity mask.
	Mask(groupName string) (cat.WayMask, error)
	// MoveTask writes a TID into a group's tasks file.
	MoveTask(tid int, groupName string) error
	// GroupOf reports the group a task belongs to.
	GroupOf(tid int) string
	// Schedule programs a core's CLOS from its task's group (the
	// context-switch hook).
	Schedule(tid, core int) error
	// Writes counts the state-changing writes absorbed so far.
	Writes() int
	// ReadMonData reads a group's CMT/MBM monitoring files.
	ReadMonData(groupName string) (MonData, error)
}

var _ Plane = (*FS)(nil)
