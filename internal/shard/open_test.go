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
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/faultfs"
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
	if err := workload.ApplyOps(d.Apply, workload.RecoveryScenario(workload.RecoveryConfig{Seed: 5, Images: 4, Ops: 120})); err != nil {
		t.Fatal(err)
	}
	want := []*core.View{d.Core().View()}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{0, 1} {
		s, err := shard.Open(dir, n, durable.Options{})
		if err != nil {
			t.Fatalf("n=%d over a root-layout directory: %v", n, err)
		}
		if err := workload.Diff(s.Views(), want); err != nil {
			t.Errorf("n=%d: against the store durable.Open wrote: %v", n, err)
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
		if got := s.Views().Stats().Sequences; s.NumShards() != 1 || got != 1 {
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
// Reuse within the home shard keeps working. Commit(b) and Apply of b's
// op are one path: each case holds for both, and an annotation whose
// marks span shards is one cross-shard commit through either.
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
	mark := func(dom string, lo int64) *core.Referent {
		t.Helper()
		m, err := s.MarkDomainInterval(dom, interval.Interval{Lo: lo, Hi: lo + 10})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	note := func(body string, refs ...*core.Referent) *core.Builder {
		b := s.NewAnnotation().Creator("tester").Date("2026-08-08").Body(body)
		for _, r := range refs {
			b.Refer(r)
		}
		return b
	}

	annA, err := s.Commit(note("on shard 0", mark(domA, 0)))
	if err != nil {
		t.Fatal(err)
	}
	shared, err := s.Views()[0].Referent(slices.Collect(annA.ReferentIDs)[0])
	if err != nil {
		t.Fatal(err)
	}

	for _, in := range []struct {
		name   string
		commit func(*core.Builder) error
	}{
		{"Commit", func(b *core.Builder) error {
			_, err := s.Commit(b)
			return err
		}},
		{"Apply", func(b *core.Builder) error {
			op, err := persist.CommitOp(b)
			if err != nil {
				return err
			}
			return s.Apply(op)
		}},
	} {
		t.Run(in.name, func(t *testing.T) {
			if err := in.commit(note("shares on shard 0", mark(domA, 5), shared)); err != nil {
				t.Fatalf("same-shard committed-referent reuse: %v", err)
			}

			err := in.commit(note("homes on shard 1", mark(domB, 0), shared))
			if !errors.Is(err, shard.ErrCrossShardReferent) {
				t.Fatalf("cross-shard committed-referent commit: err = %v, want ErrCrossShardReferent", err)
			}
			if errors.Is(err, core.ErrNoSuchReferent) {
				t.Fatalf("cross-shard refusal still reads as no-such-referent: %v", err)
			}

			before := s.CrossShardCommits()
			if err := in.commit(note("spans both shards", mark(domA, 40), mark(domB, 40))); err != nil {
				t.Fatal(err)
			}
			if got := s.CrossShardCommits(); got != before+1 {
				t.Fatalf("a commit whose marks span shards moved CrossShardCommits %d -> %d, want one", before, got)
			}
		})
	}
}

// TestOpenManifestWriteFault: the manifest is written through durable's
// fault-injected atomic writer. A failed rename fails Open with nothing
// written — no SHARDS.json, no shard-<k>/ — and the same Open with the
// disk repaired starts the two shards, removing the tmp file a crash
// mid-write would have left.
func TestOpenManifestWriteFault(t *testing.T) {
	dir := t.TempDir()
	sc := faultfs.NewScript().FailPath(faultfs.OpRename, "SHARDS.json", 1,
		faultfs.Fault{Err: faultfs.Errno(faultfs.OpRename, syscall.EIO)})
	s, err := shard.Open(dir, 2, durable.Options{Inject: sc})
	if err == nil {
		s.Close()
		t.Fatal("Open succeeded over a failed manifest rename")
	}
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Open failed, but not with the injected fault: %v", err)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("a failed Open left %v behind (%v)", left, err)
	}

	sc.Clear()
	tmp := filepath.Join(dir, "SHARDS.json.tmp")
	if err := os.WriteFile(tmp, []byte(`{"shards":`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = shard.Open(dir, 2, durable.Options{Inject: sc})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumShards() != 2 || !hasManifest(t, dir) {
		t.Fatalf("retry opened %d shards, manifest %v; want 2 and true", s.NumShards(), hasManifest(t, dir))
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("%s survived Open: %v", filepath.Base(tmp), err)
	}
}
