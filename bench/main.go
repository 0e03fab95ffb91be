// Command bench is Graphitti's live-server benchmark: it generates a
// seeded op stream, starts a real graphitti-server over loopback HTTP,
// drives it closed-loop from two clients, checks every answer against an
// in-process serial-replay oracle, kills and restarts the server, and
// prints every metric by name and unit. See README.md.
//
//	go run -C bench . -workload annotate -seed 1        # one end-to-end run
//	go run -C bench . -workload annotate -trace 1       # the traced run: layer table
//	go run -C bench . -repeat 10 -out a.json            # a set: 10 end-to-end runs and a traced one per workload
//	go run -C bench . -compare a.json b.json            # two sets, metric by metric
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// runTimeout bounds one run, server subprocesses included: the harness
// must end, and take the server with it, before its caller gives up.
const runTimeout = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: annotate, durable, explore or session (default: all four)")
		seed    = flag.Int64("seed", 1, "seed of the op stream and the preloaded study")
		seconds = flag.Float64("seconds", defaultSeconds, "nominal length of the measured phase; op counts are fixed at seconds/24 of the full sizes")
		traced  = flag.Int("trace", 0, "1 runs the traced run (per-layer metrics) instead of the end-to-end run")
		repeat  = flag.Int("repeat", 0, "run a set: per workload, this many end-to-end runs at seeds seed, seed+1, … and one traced run at seed")
		out     = flag.String("out", "", "write every run's result to this JSON file (a set, for -compare)")
		compare = flag.Bool("compare", false, "compare two sets written with -out: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two set files"))
		}
		if !compareSets(os.Stdout, flag.Arg(0), flag.Arg(1)) {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace takes 0 or 1, not %d", *traced))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive, not %v", *seconds))
	}
	if *repeat < 0 || *repeat > 0 && *traced == 1 {
		fatal(fmt.Errorf("-repeat runs a whole set, traced runs included: it takes a positive count and no -trace"))
	}
	scale := *seconds / refSeconds
	run := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		run = []workload{*w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(ctx)
	if err != nil {
		fatal(err)
	}
	// plan lists the runs of one workload as (seed offset, traced).
	type planned struct {
		offset int64
		traced bool
	}
	plan := []planned{{0, *traced == 1}}
	if *repeat > 0 {
		plan = plan[:0]
		for r := 0; r < *repeat; r++ {
			plan = append(plan, planned{int64(r), false})
		}
		plan = append(plan, planned{0, true})
	}
	var set []*result
	ok := true
	for i := range run {
		for _, pl := range plan {
			res, err := runOne(ctx, e, &run[i], *seed+pl.offset, scale, pl.traced)
			if err != nil {
				e.close()
				fatal(fmt.Errorf("%s: %w", run[i].name, err))
			}
			printResult(os.Stdout, res)
			ok = ok && res.Correct
			set = append(set, res)
		}
	}
	e.close()
	if *out != "" {
		if err := writeSet(*out, set); err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func runOne(ctx context.Context, e *env, w *workload, seed int64, scale float64, traced bool) (*result, error) {
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	if traced {
		return runTraced(ctx, e, w, seed, scale)
	}
	return runE2E(ctx, e, w, seed, scale)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printResult prints the run for a reader — every metric by name, value,
// unit and bound, with the sample counts and steal shares beside them —
// and then, as the last line, the machine-readable result: the bounded
// end-to-end metrics of an end-to-end run, the layer table of a traced one.
func printResult(w io.Writer, res *result) {
	kind, specs := "end-to-end", endToEnd
	if res.Trace {
		kind, specs = "traced", perLayer
	}
	fmt.Fprintf(w, "== %s  %s run  seed=%d scale=%.3f\n", res.Workload, kind, res.Seed, res.Scale)
	for _, k := range []string{"stream", "sizes", "headline", "oracle", "steal.gate", "host", "trace", "wall"} {
		if v, ok := res.Info[k]; ok {
			fmt.Fprintf(w, "   %-15s %s\n", k, v)
		}
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metricValue{}}
	for _, m := range specs {
		v := res.Metrics[m.name]
		bound := ""
		if m.bound > 0 {
			bound = fmt.Sprintf("  (%s is better; may worsen by %g%%)", m.better, m.bound*100)
		}
		fmt.Fprintf(w, "   %-36s %14.4f %-6s%s\n", m.name, v, m.unit, bound)
		line.Metrics[m.name] = metricValue{v, m.unit}
	}
	if !res.Trace {
		for _, m := range demoted {
			fmt.Fprintf(w, "   %-36s %14.4f %-6s  (%s is better; no bound: reported with the layer table)\n", m.name, res.Metrics[m.name], m.unit, m.better)
		}
	}
	if table, ok := res.Info["shares"]; ok {
		fmt.Fprint(w, table)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "   ! %s\n", n)
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", raw)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
