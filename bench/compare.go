package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles compares two -out files, baseline and candidate, pass by
// pass. End-to-end metrics may get worse by their bound; simulated
// results, counts and digests must be equal when both files ran the
// same seed; per-layer timings are shown and never judged — they say
// where a change landed, the end-to-end metrics say whether it counts.
func compareFiles(w io.Writer, basePath, candPath string) (ok bool, err error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readResults(candPath)
	if err != nil {
		return false, err
	}
	sameSeed := base.Seed == cand.Seed && base.Quick == cand.Quick
	if !sameSeed {
		fmt.Fprintf(w, "seeds differ (%d, %d): simulated results are held to their bounds, not to equality\n", base.Seed, cand.Seed)
	}
	ok = true
	bad := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(w, format, args...)
	}
	for _, b := range base.Results {
		c, found := findResult(cand, b.Workload, b.Traced)
		if !found {
			bad("%s traced=%v: missing from %s\n", b.Workload, b.Traced, candPath)
			continue
		}
		fmt.Fprintf(w, "== %s traced=%v\n", b.Workload, b.Traced)
		if c.Failed > 0 {
			bad("  FAILED: candidate has %d failed operations\n", c.Failed)
		}
		if sameSeed && b.Digest != c.Digest {
			bad("  DIFFERS: sim_digest %s -> %s\n", b.Digest, c.Digest)
		}
		for _, d := range defsFor(b.Traced) {
			bv, cv := b.Metrics[d.name], c.Metrics[d.name]
			worse := 0.0 // share of the baseline by which the candidate is worse
			if bv != 0 {
				worse = (cv - bv) / bv
				if d.better == "higher" {
					worse = -worse
				}
			}
			verdict := ""
			switch {
			case d.exact && sameSeed:
				if bv != cv {
					verdict = "DIFFERS"
				}
			case d.bound > 0 && worse > d.bound:
				verdict = fmt.Sprintf("REGRESSION (bound %.0f%%)", 100*d.bound)
			}
			fmt.Fprintf(w, "  %-44s %14.6g -> %14.6g %-7s %+7.2f%% worse %s\n", d.name, bv, cv, d.unit, 100*worse, verdict)
			if verdict != "" {
				ok = false
			}
		}
	}
	return ok, nil
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func findResult(f resultsFile, workload string, traced bool) (result, bool) {
	for _, r := range f.Results {
		if r.Workload == workload && r.Traced == traced {
			return r, true
		}
	}
	return result{}, false
}
