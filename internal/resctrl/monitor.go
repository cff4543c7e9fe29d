package resctrl

import (
	"errors"
	"fmt"
)

// Monitor is the hardware side of resctrl monitoring: per-CLOS cache
// occupancy and memory traffic, as provided by Intel's Cache
// Monitoring Technology and Memory Bandwidth Monitoring. The
// simulator's Machine implements it.
type Monitor interface {
	LLCOccupancyOfCLOS(clos int) uint64
	MemTrafficOfCLOS(clos int) uint64
}

// The kernel's mon_data files do not always hold a number: a file reads
// the literal string "Unavailable" while the group's RMID has no stable
// counts (freshly allocated, or parked in limbo until its occupancy
// drains), and "Error" when the domain's counter hardware is broken.
// ReadMonData surfaces the two as wrapped sentinel errors so consumers
// can tell a transient gap (retry next window) from a dead counter.
var (
	// ErrUnavailable mirrors a mon_data file reading "Unavailable":
	// the counts are temporarily missing but the next read may succeed.
	ErrUnavailable = errors.New("resctrl: monitoring data Unavailable")
	// ErrCounter mirrors a mon_data file reading "Error": the domain's
	// counter is unreadable and stays so.
	ErrCounter = errors.New("resctrl: monitoring data Error")
)

// MonData mirrors a monitoring group's mon_data directory.
type MonData struct {
	// LLCOccupancyBytes is the llc_occupancy file: bytes of LLC
	// currently attributed to the group.
	LLCOccupancyBytes uint64
	// MemTotalBytes is the mbm_total_bytes file: cumulative DRAM
	// traffic attributed to the group.
	MemTotalBytes uint64
}

// AttachMonitor connects the filesystem to the hardware counters.
// Attaching nil detaches, after which reads fail with ErrUnavailable —
// the hook tests use to script telemetry gaps.
func (fs *FS) AttachMonitor(mon Monitor) {
	fs.monitor = mon
}

// ReadMonData reads a control group's monitoring data. Without an
// attached monitor it fails with an error wrapping ErrUnavailable, the
// same shape as an RMID whose counts have not materialised.
func (fs *FS) ReadMonData(groupName string) (MonData, error) {
	if fs.monitor == nil {
		return MonData{}, fmt.Errorf("resctrl: monitoring not available: %w", ErrUnavailable)
	}
	g, ok := fs.groups[groupName]
	if !ok {
		return MonData{}, fmt.Errorf("resctrl: no group %q", groupName)
	}
	return MonData{
		LLCOccupancyBytes: fs.monitor.LLCOccupancyOfCLOS(g.clos),
		MemTotalBytes:     fs.monitor.MemTrafficOfCLOS(g.clos),
	}, nil
}
