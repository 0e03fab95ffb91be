package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

func writeSet(path string, set []*result) error {
	raw, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func readSet(path string) ([]*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []*result
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// values collects metric name of workload w over the set's runs of the
// given kind (end-to-end or traced).
func values(set []*result, w, name string, traced bool) []float64 {
	var out []float64
	for _, r := range set {
		if r.Workload == w && r.Trace == traced {
			if v, ok := r.Metrics[name]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// exactCounts are the layer metrics measured single-threaded that must
// repeat exactly between two sets of the same commit at the same seeds.
var exactCounts = []string{
	"core.commit.allocs_per_op", "core.commit.alloc_kb_per_op", "query.bindings_tried_per_op",
	"prop.derived_per_commit", "wal.bytes_per_op",
}

// compareSets prints, per workload and end-to-end metric, each set's
// median and quartiles, the relative gap of b against a in the metric's
// worse direction, and a verdict: "regressed" when b's median is worse
// than a's by more than the bound, "unresolved" when either set's own
// spread exceeds the bound, "missing" when either set has fewer than two
// runs of the workload or a's median is zero, "ok" otherwise. The demoted
// metrics are printed the same way with the verdict "no bound". It
// reports whether every bounded row is ok, no row is missing, and the
// exact counts agree. Quartiles are Python's statistics.quantiles(n=4).
func compareSets(w io.Writer, pathA, pathB string) bool {
	a, errA := readSet(pathA)
	b, errB := readSet(pathB)
	if errA != nil || errB != nil {
		fmt.Fprintln(w, "bench:", errors.Join(errA, errB))
		return false
	}
	return compareResults(w, a, b)
}

func compareResults(w io.Writer, a, b []*result) bool {
	allOK := true
	fmt.Fprintf(w, "%-9s %-20s %12s %12s %12s %8s | %12s %12s %12s %8s | %8s %7s  %s\n",
		"workload", "metric", "a.q1", "a.median", "a.q3", "a.iqr%", "b.q1", "b.median", "b.q3", "b.iqr%", "gap%", "bound%", "verdict")
	specs := append(append([]metricSpec(nil), endToEnd...), demoted...)
	for _, wl := range workloads {
		for _, m := range specs {
			va, vb := values(a, wl.name, m.name, false), values(b, wl.name, m.name, false)
			if len(va) < 2 || len(vb) < 2 {
				allOK = false
				fmt.Fprintf(w, "%-9s %-20s %d and %d end-to-end runs, at least 2 each needed: missing\n", wl.name, m.name, len(va), len(vb))
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			gap := (b2 - a2) / a2
			if m.better == "higher" {
				gap = -gap
			}
			verdict := "ok"
			switch {
			case a2 == 0:
				verdict = "missing"
			case m.bound == 0:
				verdict = "no bound"
			case gap > m.bound:
				verdict = "regressed"
			case spread(va) > m.bound || spread(vb) > m.bound:
				verdict = "unresolved"
			}
			allOK = allOK && (verdict == "ok" || verdict == "no bound")
			fmt.Fprintf(w, "%-9s %-20s %12.4f %12.4f %12.4f %8.2f | %12.4f %12.4f %12.4f %8.2f | %+8.2f %7.2f  %s\n",
				wl.name, m.name, a1, a2, a3, spread(va)*100, b1, b2, b3, spread(vb)*100, gap*100, m.bound*100, verdict)
		}
		for _, name := range exactCounts {
			va, vb := values(a, wl.name, name, true), values(b, wl.name, name, true)
			verdict := "identical"
			switch {
			case len(va) == 0 || len(vb) == 0:
				verdict = "missing"
			case len(va) != len(vb):
				verdict = "differs"
			default:
				for i := range va {
					if va[i] != vb[i] {
						verdict = "differs"
					}
				}
			}
			allOK = allOK && verdict == "identical"
			fmt.Fprintf(w, "%-9s %-36s count, %d and %d traced runs, run for run: %s\n", wl.name, name, len(va), len(vb), verdict)
		}
	}
	return allOK
}
