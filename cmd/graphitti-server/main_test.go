package main

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphitti/internal/durable"
	"graphitti/internal/obs"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/shard"
	"graphitti/internal/workload"
)

// TestGracefulShutdownClosesStore runs the real server loop against a
// durable directory, writes through the API, then cancels the context —
// the SIGINT/SIGTERM path — and checks the drain exits cleanly and the
// store was flushed and closed: a fresh Open replays the write.
func TestGracefulShutdownClosesStore(t *testing.T) {
	dir := t.TempDir()
	addrCh := make(chan net.Addr, 1)
	cfg := serverConfig{
		addr:            "127.0.0.1:0",
		study:           "", // empty durable store, no demo seed
		dataDir:         dir,
		shutdownTimeout: 5 * time.Second,
		onListen:        func(a net.Addr) { addrCh <- a },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, cfg, logger) }()

	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-errc:
		t.Fatalf("run exited before listening: %v", err)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}
	// One durable op through the API; it must survive the shutdown.
	resp, err = http.Post(base+"/api/rules", "application/json",
		bytes.NewReader([]byte(`{"id":"ov","edge":"overlap","domain":"atlas"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add rule: %d", resp.StatusCode)
	}

	cancel() // the signal
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain within 10s")
	}

	d, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatalf("reopen after shutdown: %v", err)
	}
	defer d.Close()
	if st := d.Stats(); st.Seq != 1 || st.TornBytes != 0 {
		t.Fatalf("store not cleanly closed: %+v", st)
	}
}

// TestBuildHandlerUnknownStudy pins the config-error path of run's
// builder.
func TestBuildHandlerUnknownStudy(t *testing.T) {
	_, _, _, err := buildHandler(serverConfig{study: "no-such-study"})
	if err == nil {
		t.Fatal("unknown study accepted")
	}
}

// TestShardedDirSurvivesDefaultFlags pins the restart contract for a
// sharded data directory: rerunning the server with -shards left at its
// default must adopt the count SHARDS.json records and serve the shard
// data — not open one pipeline at the root, which would serve an empty
// store and fork the directory with a second top-level WAL. An explicit
// mismatching -shards must refuse outright.
func TestShardedDirSurvivesDefaultFlags(t *testing.T) {
	dir := t.TempDir()
	sh, err := shard.Open(dir, 2, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.AddRule(prop.Rule{ID: "ov", Edge: "overlap", Domain: "atlas"}); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	// The CLI default: -shards 1, not explicitly set.
	_, s2, _, err := buildHandler(serverConfig{dataDir: dir, shards: 1})
	if err != nil {
		t.Fatalf("restart with default flags: %v", err)
	}
	if got := s2.NumShards(); got != 2 {
		t.Fatalf("adopted %d shards, want the directory's 2", got)
	}
	if got, err := s2.Views().Rules(); err != nil || len(got) != 1 {
		t.Fatalf("recovered %d rules (%v), want 1", len(got), err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// An explicit -shards 1 over a 2-shard directory is a mismatch: the
	// open must refuse with shard.Open's count error, never fork.
	if _, _, _, err := buildHandler(serverConfig{dataDir: dir, shards: 1, shardsSet: true}); err == nil {
		t.Fatal("explicit -shards 1 over a 2-shard directory was accepted")
	}

	// A directory whose manifest was lost must be refused too, instead
	// of opening a fresh WAL at the root beside the shard data.
	if err := os.Remove(filepath.Join(dir, "SHARDS.json")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := buildHandler(serverConfig{dataDir: dir, shards: 1}); err == nil {
		t.Fatal("manifest-less shard directory opened as a one-pipeline store")
	}
}

// commitsTotal sums graphitti_store_commits_total over every shard label:
// the number of annotations this process has committed, batch or not.
func commitsTotal(t *testing.T) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "graphitti_store_commits_total{") {
			continue
		}
		n, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		total += n
	}
	return total
}

// TestSeedFromSnapshotFileLoadsOnce: seeding a fresh data directory from
// -snapshot decodes the file and hands it to Restore — one load. Loading
// it into a throw-away store first (as the server used to) would commit
// every annotation twice.
func TestSeedFromSnapshotFileLoadsOnce(t *testing.T) {
	cfg := workload.DefaultInfluenza
	cfg.Annotations = 40
	study, err := workload.Influenza(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := study.Store.Stats()
	file := filepath.Join(t.TempDir(), "seed.json")
	f, err := os.Create(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := persist.Write(study.Store, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		before := commitsTotal(t)
		_, store, _, err := buildHandler(serverConfig{snapshot: file, dataDir: t.TempDir(), shards: shards, shardsSet: true})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := commitsTotal(t) - before; got != uint64(want.Annotations) {
			t.Errorf("shards=%d: seeding committed %d annotations, want %d (one load)", shards, got, want.Annotations)
		}
		if got := store.Views().Stats().Annotations; got != want.Annotations {
			t.Errorf("shards=%d: serving %d annotations, want %d", shards, got, want.Annotations)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
