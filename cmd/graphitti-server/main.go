// Command graphitti-server serves a Graphitti store over HTTP/JSON — the
// service-shaped equivalent of the paper's demo GUI. By default it loads a
// generated demonstration study; pass -snapshot to serve a store exported
// with the persist format (e.g. from GET /api/snapshot), or -data-dir to
// run durably: every mutation is write-ahead logged and fdatasynced
// before it is acknowledged, and the directory is replayed on restart.
//
//	go run ./cmd/graphitti-server -addr :8080 -study influenza
//	go run ./cmd/graphitti-server -addr :8080 -data-dir ./data
//	curl localhost:8080/api/stats
//	curl -X POST localhost:8080/api/search -d '{"expr":"contains(/annotation/body, \"protease\")"}'
//
// Every deployment is one shard set: -shards pipelines (default 1), each
// with a WAL + snapshot chain under -data-dir or, without it, no log. A
// -study or -snapshot seeds the set only when it holds no prior state; an
// existing directory always wins, including over -shards left unset.
//
// The server is production-shaped: read-header and idle timeouts bound
// slow clients, SIGINT/SIGTERM triggers a graceful drain (bounded by
// -shutdown-timeout) before the durable store is flushed and closed, and
// GET /healthz / GET /readyz report liveness and the store's
// healthy/degraded state for orchestrators. Startup and shutdown are
// logged structured (key=value) on stderr. GET /metrics exposes every
// internal counter in Prometheus text format (GET /debug/vars serves
// the same as JSON), every response carries an X-Request-Id, and -pprof
// mounts the profiling handlers. See docs/OPERATIONS.md for the full
// operator guide and docs/METRICS.md for the metric reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"graphitti"
	"graphitti/internal/durable"
	"graphitti/internal/httpapi"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/shard"
	"graphitti/internal/workload"
)

func main() {
	cfg := serverConfig{}
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.study, "study", "influenza", "demo study: influenza or neuro (or empty for none)")
	flag.IntVar(&cfg.anns, "anns", 400, "annotation count for the influenza study")
	flag.IntVar(&cfg.images, "images", 12, "image count for the neuro study")
	flag.StringVar(&cfg.snapshot, "snapshot", "", "load the store from a persist snapshot file instead")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "durable mode: WAL + snapshot directory (created if missing)")
	flag.Int64Var(&cfg.compactMiB, "compact-threshold-mib", 0, "durable mode: decoded WAL size, every record counted as it inflates, triggering compaction (0 = default, 8 MiB)")
	flag.IntVar(&cfg.shards, "shards", 1, "writer pipelines: >1 shards the store (per-shard WAL/snapshot under -data-dir); a durable directory pins its count, adopted when the flag is left unset (0 adopts explicitly)")
	flag.DurationVar(&cfg.opts.QueryTimeout, "query-timeout", 0, "per-request limit for /api/search and /api/query (0 = none); timed-out requests get a 408 JSON error")
	flag.Int64Var(&cfg.opts.MaxBodyBytes, "max-body-bytes", 0, "cap on JSON request bodies (0 = default 8 MiB); larger requests get 413")
	flag.StringVar(&cfg.rulesFile, "rules", "", "JSON file of propagation rules to install at startup (rules already present are kept)")
	flag.DurationVar(&cfg.shutdownTimeout, "shutdown-timeout", 15*time.Second, "graceful drain limit on SIGINT/SIGTERM before open requests are aborted")
	flag.BoolVar(&cfg.opts.EnablePprof, "pprof", false, "mount net/http/pprof under /debug/pprof (CPU/heap profiles; off by default)")
	flag.DurationVar(&cfg.opts.SlowRequest, "slow-request", 0, "log any request at least this slow with its span breakdown (0 = off); traces are browsable at /debug/traces either way")
	flag.IntVar(&cfg.opts.TraceRingSize, "trace-ring", 0, "per-shard retention of GET /debug/traces (0 = default 256)")
	flag.IntVar(&cfg.opts.TraceSampleEvery, "trace-sample", 0, "retain every Nth request's trace (0/1 = all; ?trace=1 requests are always kept)")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "shards" {
			cfg.shardsSet = true
		}
	})

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, logger); err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
}

type serverConfig struct {
	addr         string
	study        string
	anns, images int
	snapshot     string
	dataDir      string
	compactMiB   int64
	shards       int
	// shardsSet records whether -shards was given explicitly: a durable
	// directory's recorded count is adopted when it was not, and an
	// explicit value must match the directory.
	shardsSet       bool
	rulesFile       string
	shutdownTimeout time.Duration
	opts            httpapi.Options
	// onListen, when set, receives the bound address once the listener
	// is up — the test hook for -addr :0.
	onListen func(net.Addr)
}

// run builds the store, serves until ctx is cancelled (the signal), then
// drains in-flight requests and closes the durable store so the WAL is
// flushed before exit.
func run(ctx context.Context, cfg serverConfig, logger *slog.Logger) error {
	// The API layer logs failed (5xx) requests with their request IDs on
	// the same structured stream as startup/shutdown events.
	cfg.opts.Logger = logger
	handler, store, report, err := buildHandler(cfg)
	if err != nil {
		return err
	}
	fmt.Print(report)

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler: handler,
		// Bound header reads and idle keep-alives so stalled or leaky
		// clients cannot pin connections forever; request bodies are
		// size-capped at the handler layer instead of time-capped here,
		// because restore uploads are legitimately slow.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	logger.Info("listening",
		"addr", ln.Addr().String(),
		"dataDir", cfg.dataDir,
		"shutdownTimeout", cfg.shutdownTimeout)
	if cfg.onListen != nil {
		cfg.onListen(ln.Addr())
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		logger.Info("shutdown signal received, draining")
		start := time.Now()
		// The parent ctx is already canceled on this branch; deriving the
		// drain deadline from it would make Shutdown return immediately.
		//lint:ignore ctxflow drain timeout must outlive the canceled parent ctx
		dctx, cancel := context.WithTimeout(context.Background(), cfg.shutdownTimeout)
		defer cancel()
		if derr := srv.Shutdown(dctx); derr != nil {
			logger.Warn("drain incomplete, aborting open requests",
				"err", derr, "after", time.Since(start))
			_ = srv.Close()
		}
		logger.Info("drained", "duration", time.Since(start))
	case err = <-errc:
		// Serve never returns nil before Shutdown; anything here is a
		// listener failure.
		logger.Error("serve failed", "err", err)
	}

	if cerr := store.Close(); cerr != nil {
		logger.Error("closing store", "dataDir", cfg.dataDir, "err", cerr)
		if err == nil {
			err = cerr
		}
	} else if store.Durable() {
		logger.Info("durable store closed", "dataDir", cfg.dataDir)
	}
	return err
}

// buildHandler assembles the deployment — -shards writer pipelines behind
// the router, without a log or (with -data-dir) each with its own WAL +
// snapshot chain — and returns the shard set so run can close it on exit.
func buildHandler(cfg serverConfig) (http.Handler, *shard.Store, string, error) {
	rules, err := loadRules(cfg.rulesFile)
	if err != nil {
		return nil, nil, "", err
	}
	var sh *shard.Store
	report := "graphitti-server: "
	fresh := true
	if cfg.dataDir == "" {
		sh = shard.New(cfg.shards)
		report += fmt.Sprintf("%d shards (in-memory)\n", sh.NumShards())
	} else {
		// What the directory holds decides its layout and pins its shard
		// count (shard.Open); a flag left at its default adopts that, an
		// explicit mismatch is refused there.
		n := cfg.shards
		if !cfg.shardsSet {
			n = 0
		}
		sh, err = shard.Open(cfg.dataDir, n, durable.Options{CompactThreshold: cfg.compactMiB << 20})
		if err != nil {
			return nil, nil, "", err
		}
		var seq uint64
		var replayed int
		var torn int64
		for _, st := range sh.DurabilityStats() {
			seq += st.Seq
			replayed += st.ReplayedRecords
			torn += st.TornBytes
		}
		fresh = seq == 0
		report += fmt.Sprintf("%d shards in %s (summed seq %d, %d replayed, %d torn bytes truncated)\n",
			sh.NumShards(), cfg.dataDir, seq, replayed, torn)
	}
	if fresh && (cfg.snapshot != "" || cfg.study != "") {
		// Nothing served yet: seed from the requested study/snapshot
		// (checkpointed immediately where there is a log).
		if err := seed(cfg, sh); err != nil {
			_ = sh.Close() // the seeding error is the one to report
			return nil, nil, "", err
		}
		report += fmt.Sprintf("seeded from %s\n", seedSource(cfg.study, cfg.snapshot))
	}
	// Rules from -rules are ops like any other: logged where there is a
	// log, so they survive restarts whether or not the file is passed
	// again. Ones already present (replayed from a previous run) are kept,
	// not duplicated.
	if err := installRules(rules, sh.AddRule); err != nil {
		_ = sh.Close() // the rule error is the one to report
		return nil, nil, "", err
	}
	vs := sh.Views()
	st := vs.Stats()
	served, splitErr := vs.Rules()
	via := fmt.Sprintf("via %d rules", len(served))
	if splitErr != nil {
		// A rule broadcast that reached only some shards before a crash:
		// serve, but say so; re-issuing the rule op converges the shards.
		via = fmt.Sprintf("under split rules (%v)", splitErr)
	}
	report += fmt.Sprintf("serving %d annotations, %d referents, %d a-graph edges, %d derived facts %s\n",
		st.Annotations, st.Referents, st.GraphEdges, st.Derived, via)
	return httpapi.New(sh, cfg.opts), sh, report, nil
}

// loadRules parses the -rules file (nil when the flag is unset).
func loadRules(path string) ([]prop.Rule, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return prop.ParseRules(f)
}

// installRules adds each rule via add, keeping duplicates already
// installed (e.g. replayed from the WAL).
func installRules(rules []prop.Rule, add func(prop.Rule) error) error {
	for _, r := range rules {
		if err := add(r); err != nil && !errors.Is(err, prop.ErrDuplicateRule) {
			return fmt.Errorf("install rule %s: %w", r.ID, err)
		}
	}
	return nil
}

func seedSource(study, snapshot string) string {
	if snapshot != "" {
		return "snapshot " + snapshot
	}
	return "study " + study
}

// seed restores a fresh deployment. A snapshot file is streamed into
// Restore, its one load, op by op as it is read; a generated study has to
// be built into a store first, and its export is restored.
func seed(cfg serverConfig, sh *shard.Store) error {
	if cfg.snapshot != "" {
		f, err := os.Open(cfg.snapshot)
		if err != nil {
			return err
		}
		defer f.Close()
		return sh.Restore(persist.ReadOps(f, 0))
	}
	study, err := buildStudy(cfg.study, cfg.anns, cfg.images)
	if err != nil {
		return err
	}
	snap, err := persist.Export(study)
	if err != nil {
		return err
	}
	return sh.Restore(snap)
}

func buildStudy(study string, anns, images int) (*graphitti.Store, error) {
	switch study {
	case "", "none":
		return graphitti.New(), nil
	case "influenza":
		cfg := workload.DefaultInfluenza
		cfg.Annotations = anns
		s, err := workload.Influenza(cfg)
		if err != nil {
			return nil, err
		}
		return s.Store, nil
	case "neuro":
		cfg := workload.DefaultNeuro
		cfg.Images = images
		s, err := workload.Neuroscience(cfg)
		if err != nil {
			return nil, err
		}
		return s.Store, nil
	default:
		return nil, fmt.Errorf("unknown study %q", study)
	}
}
