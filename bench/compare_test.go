package main

import (
	"bytes"
	"strings"
	"testing"
)

// syntheticSet is a complete set: per workload n end-to-end runs whose
// timings vary by a percent around base, and one traced run.
func syntheticSet(n int, base float64) []*result {
	var set []*result
	for _, w := range workloads {
		for r := 0; r < n; r++ {
			m := map[string]float64{}
			for _, spec := range append(append([]metricSpec(nil), endToEnd...), demoted...) {
				m[spec.name] = base * (1 + 0.01*float64(r%3))
			}
			m["goodput_ratio"] = 1
			set = append(set, &result{Workload: w.name, Seed: int64(r), Metrics: m})
		}
		counts := map[string]float64{}
		for _, name := range exactCounts {
			counts[name] = 7
		}
		set = append(set, &result{Workload: w.name, Trace: true, Metrics: counts})
	}
	return set
}

func TestCompareVerdicts(t *testing.T) {
	without := func(set []*result, drop func(*result) bool) []*result {
		var out []*result
		for _, r := range set {
			if !drop(r) {
				out = append(out, r)
			}
		}
		return out
	}
	slowSetup := syntheticSet(10, 100)
	for _, r := range slowSetup {
		if !r.Trace && r.Workload == "durable" {
			r.Metrics["setup_s"] *= 1.3
		}
	}
	slowOps := syntheticSet(10, 100)
	for _, r := range slowOps {
		if !r.Trace {
			r.Metrics["ops_per_s"] /= 2
		}
	}
	otherCount := syntheticSet(10, 100)
	for _, r := range otherCount {
		if r.Trace && r.Workload == "session" {
			r.Metrics["wal.bytes_per_op"] = 8
		}
	}
	noisyRSS := syntheticSet(10, 100)
	for _, r := range noisyRSS {
		if !r.Trace {
			r.Metrics["rss_peak_mb"] = 101 + 16*float64(r.Seed%3-1)
		}
	}
	for _, tc := range []struct {
		name   string
		b      []*result
		ok     bool
		expect string
	}{
		{"same commit", syntheticSet(10, 100), true, ""},
		{"empty set", nil, false, "missing"},
		{"one run per workload", syntheticSet(1, 100), false, "missing"},
		{"a workload absent", without(syntheticSet(10, 100), func(r *result) bool { return r.Workload == "explore" }), false, "missing"},
		{"no traced runs", without(syntheticSet(10, 100), func(r *result) bool { return r.Trace }), false, "missing"},
		{"a bounded metric 30% worse", slowSetup, false, "regressed"},
		{"a bounded metric spread wider than its bound", noisyRSS, false, "unresolved"},
		{"a demoted metric halved", slowOps, true, "no bound"},
		{"a count moved", otherCount, false, "differs"},
	} {
		var out bytes.Buffer
		if got := compareResults(&out, syntheticSet(10, 100), tc.b); got != tc.ok {
			t.Errorf("%s: compareResults = %v, want %v\n%s", tc.name, got, tc.ok, out.String())
		}
		if !strings.Contains(out.String(), tc.expect) {
			t.Errorf("%s: no %q row in\n%s", tc.name, tc.expect, out.String())
		}
	}
}
