package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
)

// startProfile starts a CPU profile of a workload's untraced
// repetitions when dir is set. The returned stop writes
// dir/<workload>.pprof and, beside it, <workload>.top.txt: the top 15
// functions by flat and by cumulative time — the checked-in answer to
// "where does the time go". Profiled passes run a few percent slower;
// do not compare their timings with unprofiled ones.
func startProfile(dir, workload string, traced bool) (stop func() error, err error) {
	if dir == "" || traced {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	prof := filepath.Join(dir, workload+".pprof")
	f, err := os.Create(prof)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // the profile never started; the start error is the one to report
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return err
		}
		return writeTopTable(prof, filepath.Join(dir, workload+".top.txt"))
	}, nil
}

func writeTopTable(prof, table string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var out []byte
	for _, sort := range []string{"-flat", "-cum"} {
		b, err := exec.Command("go", "tool", "pprof", "-top", sort, "-nodecount=15", self, prof).CombinedOutput()
		if err != nil {
			return fmt.Errorf("go tool pprof: %w: %s", err, b)
		}
		out = append(out, b...)
		out = append(out, '\n')
	}
	return os.WriteFile(table, out, 0o644)
}
