package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors ../BENCHMARK.json, the contract the repository's
// driver reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricEntry `json:"end_to_end"`
	PerLayer   []metricEntry `json:"per_layer"`
}

type metricEntry struct {
	Name, Unit, Better string
	Bound              float64
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the tables the harness prints from must name the
// same workloads and metrics, with the same units, directions and bounds.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	f := readBenchmarkFile(t)
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %v", f.RunSeconds, defaultSeconds)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", f.Paths)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	seen := map[string]bool{}
	check := func(kind string, got []metricEntry, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, harness %+v", kind, i, g, m)
			}
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
				t.Errorf("%s metric %q (%q): name or unit outside the contract's alphabet", kind, m.name, m.unit)
			}
			if m.better != "lower" && m.better != "higher" {
				t.Errorf("%s metric %q: better is %q", kind, m.name, m.better)
			}
			if seen[m.name] {
				t.Errorf("metric name %q used twice", m.name)
			}
			seen[m.name] = true
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end_to_end metric %q: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Errorf("first end_to_end metric must be setup_s in s, lower is better: %+v", endToEnd[0])
	}
}

// resultLine is the last line of a run's output.
type resultLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// The smoke run drives the whole harness — server subprocesses, oracle,
// kill -9, restarts, probe depths — at a fiftieth of the size, and holds
// what it prints against BENCHMARK.json: every name present with its
// unit, none extra, none missing.
func TestSmokeRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs graphitti-server")
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	e, err := newEnv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	f := readBenchmarkFile(t)
	w := workloadByName("session")
	for _, tc := range []struct {
		traced bool
		want   []metricEntry
	}{{false, f.EndToEnd}, {true, f.PerLayer}} {
		res, err := runOne(ctx, e, w, 1, testScale, tc.traced)
		if err != nil {
			t.Fatalf("traced=%v: %v", tc.traced, err)
		}
		var out bytes.Buffer
		printResult(&out, res)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last resultLine
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&last); err != nil {
			t.Fatalf("traced=%v: last line is not the result object: %v\n%s", tc.traced, err, out.String())
		}
		if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d\n%s", tc.traced, last.Correct, last.Attempted, last.Failed, out.String())
		}
		if len(last.Metrics) != len(tc.want) {
			t.Errorf("traced=%v: %d metrics printed, BENCHMARK.json lists %d", tc.traced, len(last.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			got, ok := last.Metrics[m.Name]
			if !ok {
				t.Errorf("traced=%v: metric %q missing from the result line", tc.traced, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("traced=%v: metric %q printed in %q, BENCHMARK.json says %q", tc.traced, m.Name, got.Unit, m.Unit)
			}
		}
		if !tc.traced {
			for _, m := range tc.want {
				if last.Metrics[m.Name].Value == 0 {
					t.Errorf("end-to-end metric %q is 0", m.Name)
				}
			}
			if g := last.Metrics["goodput_ratio"].Value; g != 1 {
				t.Errorf("goodput_ratio %v, want 1", g)
			}
		}
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("smoke run took %v, want under 15s", d)
	}
}
