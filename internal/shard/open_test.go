package shard_test

// The directory-layout matrix. shard.Open reads the layout off the disk
// and migrates nothing: SHARDS.json present means pipelines under
// shard-<k>/, absent means one pipeline at the directory root. So a
// directory durable.Open wrote opens as the shard set of one, sharding it
// is refused, a manifest naming one shard still opens its shard-0/, a
// sharded directory whose manifest was lost is refused for every count,
// and a fresh directory gets the root layout unless two or more shards
// were asked for. Every refusal leaves the directory as it found it.

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/shard"
	"graphitti/internal/workload"
)

// dirListing renders every file under dir with its size: what "left
// untouched" compares.
func dirListing(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s %v %d\n", strings.TrimPrefix(path, dir), d.IsDir(), info.Size())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func hasManifest(t *testing.T, dir string) bool {
	t.Helper()
	_, err := os.Stat(filepath.Join(dir, "SHARDS.json"))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	return err == nil
}

func registerSeq(t *testing.T, apply func(persist.Op) error, id, domain string) {
	t.Helper()
	sq, err := seq.New(id, seq.DNA, strings.Repeat("ACGT", 64))
	if err != nil {
		t.Fatal(err)
	}
	sq.Domain = domain
	if err := apply(persist.SequenceOp(sq)); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesUnshardedDirectory: a root-layout directory, as
// durable.Open (and the unsharded server before the shard set became the
// only store) writes it. Until then n ∈ {0, 1} were refused here along
// with n = 2; that expectation is reversed on purpose — the directory IS
// the shard set of one, opens to the very state it holds and gains no
// SHARDS.json — and only sharding it (n = 2) is still refused, untouched.
func TestOpenRefusesUnshardedDirectory(t *testing.T) {
	dir := t.TempDir()
	d, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.ApplyOps(d, workload.RecoveryScenario(workload.RecoveryConfig{Seed: 5, Images: 4, Ops: 120})); err != nil {
		t.Fatal(err)
	}
	wantSnap, err := persist.Export(d.Core())
	if err != nil {
		t.Fatal(err)
	}
	want := exportJSON(t, wantSnap)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{0, 1} {
		s, err := shard.Open(dir, n, durable.Options{})
		if err != nil {
			t.Fatalf("n=%d over a root-layout directory: %v", n, err)
		}
		gotSnap, err := s.Export()
		if err != nil {
			t.Fatal(err)
		}
		if got := exportJSON(t, gotSnap); !bytes.Equal(got, want) {
			t.Errorf("n=%d: export differs from the store durable.Open wrote", n)
			diffSnapshots(t, gotSnap, wantSnap)
		}
		if s.NumShards() != 1 || !s.Durable() {
			t.Errorf("n=%d: opened %d shards, durable=%v; want the durable set of one", n, s.NumShards(), s.Durable())
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if hasManifest(t, dir) {
			t.Fatalf("n=%d: opening a root-layout directory wrote a SHARDS.json", n)
		}
	}

	before := dirListing(t, dir)
	if _, err := shard.Open(dir, 2, durable.Options{}); err == nil {
		t.Fatal("n=2: sharded Open initialised over a root-layout store")
	}
	if after := dirListing(t, dir); after != before {
		t.Fatalf("refused Open changed the directory:\nbefore\n%safter\n%s", before, after)
	}
	// What the shard set wrote at the root, durable.Open still reads.
	d, err = durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatalf("durable.Open after the shard set of one: %v", err)
	}
	d.Close()
}

func TestOpenRefusesOrphanShardDirs(t *testing.T) {
	dir := t.TempDir()
	s, err := shard.Open(dir, 2, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash that lost the manifest.
	if err := os.Remove(filepath.Join(dir, "SHARDS.json")); err != nil {
		t.Fatal(err)
	}
	// n ≤ 1 must not open a fresh pipeline at the root (hiding the shards'
	// data), and no count may re-initialise over the orphaned shard
	// directories.
	before := dirListing(t, dir)
	for _, n := range []int{0, 1, 2, 3} {
		if _, err := shard.Open(dir, n, durable.Options{}); err == nil {
			t.Fatalf("n=%d: Open re-initialised over shard-* dirs with no manifest", n)
		}
	}
	if after := dirListing(t, dir); after != before {
		t.Fatalf("refused Open changed the directory:\nbefore\n%safter\n%s", before, after)
	}
}

// TestOpenManifestOfOneShard: SHARDS.json {"shards":1} + shard-0/ — what
// shard.Open(dir, 1, …) laid out before the root layout became the set of
// one — still opens, with its data, under n ∈ {0, 1}; another count is
// refused.
func TestOpenManifestOfOneShard(t *testing.T) {
	dir := t.TempDir()
	d, err := durable.Open(filepath.Join(dir, "shard-0"), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	registerSeq(t, d.Apply, "seq-0", "dom-0")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "SHARDS.json"), []byte(`{"shards":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1} {
		s, err := shard.Open(dir, n, durable.Options{})
		if err != nil {
			t.Fatalf("n=%d over a one-shard manifest: %v", n, err)
		}
		if got := s.Stats().Sequences; s.NumShards() != 1 || got != 1 {
			t.Errorf("n=%d: %d shards holding %d sequences, want 1 and 1", n, s.NumShards(), got)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if durable.HasStore(dir) {
		t.Fatal("opening shard-0/ under a manifest wrote a store at the root")
	}
	if _, err := shard.Open(dir, 2, durable.Options{}); err == nil {
		t.Fatal("n=2 over a one-shard manifest was accepted")
	}
}

// TestOpenFreshDirectoryLayout: a fresh directory gets one pipeline at
// its root and no manifest for n ≤ 1 — the files durable.Open writes —
// and the manifest plus shard-<k>/ from two shards up.
func TestOpenFreshDirectoryLayout(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		dir := t.TempDir()
		s, err := shard.Open(dir, n, durable.Options{})
		if err != nil {
			t.Fatalf("n=%d fresh: %v", n, err)
		}
		registerSeq(t, s.Apply, "seq-0", "dom-0")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		root, manifest := durable.HasStore(dir), hasManifest(t, dir)
		if wantRoot := n <= 1; root != wantRoot || manifest == wantRoot {
			t.Errorf("n=%d fresh: store at root %v, SHARDS.json %v; want %v and %v",
				n, root, manifest, wantRoot, !wantRoot)
		}
	}
}

// TestCommitRefusesCrossShardCommittedReferent: reusing a committed
// referent homed on a different shard than the annotation's home shard
// is refused up front with ErrCrossShardReferent naming the owner — not
// a confusing "no such referent" from a home shard that cannot see it.
// Reuse within the home shard keeps working.
func TestCommitRefusesCrossShardCommittedReferent(t *testing.T) {
	s := shard.New(2)
	router := core.Router{Shards: 2}
	domA, domB := "", ""
	for i := 0; domA == "" || domB == ""; i++ {
		d := fmt.Sprintf("dom-%d", i)
		switch router.ShardOfKey(d) {
		case 0:
			if domA == "" {
				domA = d
			}
		default:
			if domB == "" {
				domB = d
			}
		}
	}
	for i, dom := range []string{domA, domB} {
		sq, err := seq.New(fmt.Sprintf("seq-%d", i), seq.DNA, strings.Repeat("ACGT", 64))
		if err != nil {
			t.Fatal(err)
		}
		sq.Domain = dom
		if err := s.Apply(persist.SequenceOp(sq)); err != nil {
			t.Fatal(err)
		}
	}

	ra, err := s.MarkDomainInterval(domA, interval.Interval{Lo: 0, Hi: 10})
	if err != nil {
		t.Fatal(err)
	}
	annA, err := s.Commit(s.NewAnnotation().Creator("tester").Date("2026-08-08").Body("on shard 0").Refer(ra))
	if err != nil {
		t.Fatal(err)
	}
	shared, err := s.Referent(annA.ReferentIDs[0])
	if err != nil {
		t.Fatal(err)
	}

	// Same-shard reuse of the committed referent works.
	rb, err := s.MarkDomainInterval(domA, interval.Interval{Lo: 5, Hi: 15})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(s.NewAnnotation().Creator("tester").Date("2026-08-08").Body("shares on shard 0").Refer(rb).Refer(shared)); err != nil {
		t.Fatalf("same-shard committed-referent reuse: %v", err)
	}

	// Cross-shard reuse is refused with the dedicated error.
	rc, err := s.MarkDomainInterval(domB, interval.Interval{Lo: 0, Hi: 10})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Commit(s.NewAnnotation().Creator("tester").Date("2026-08-08").Body("homes on shard 1").Refer(rc).Refer(shared))
	if !errors.Is(err, shard.ErrCrossShardReferent) {
		t.Fatalf("cross-shard committed-referent commit: err = %v, want ErrCrossShardReferent", err)
	}
	if errors.Is(err, core.ErrNoSuchReferent) {
		t.Fatalf("cross-shard refusal still reads as no-such-referent: %v", err)
	}
}
