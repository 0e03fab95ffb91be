package durable

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/faultfs"
	"graphitti/internal/obs"
	"graphitti/internal/persist"
	"graphitti/internal/wal"
	"graphitti/internal/workload"
)

// TestCompressedRecordsRoundTrip: records of every size, a window's worth
// and more included, inflate to what was deflated through one reader that
// never restarts, while the writer restarts over the recovered window at
// random records, as a reopened log's does. A writer readied for a fresh
// log, whether it was made over a window or not, writes records a reader
// with an empty window inflates.
func TestCompressedRecordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := strings.Fields("creator date domain chr1 atlas protease motif region reviewed deep cerebellar nuclei")
	record := func() []byte {
		size := 1 + rng.Intn(300)
		switch rng.Intn(20) {
		case 0:
			size = windowSize + rng.Intn(3*windowSize)
		case 1:
			size = windowSize - 1 + rng.Intn(3)
		}
		raw := []byte{recordBinary}
		for len(raw) < size {
			if rng.Intn(4) == 0 {
				raw = append(raw, byte(rng.Intn(256)))
			} else {
				raw = append(raw, words[rng.Intn(len(words))]...)
			}
		}
		return raw[:size]
	}
	var in inflater
	d := newDeflater(nil)
	for i := 0; i < 400; i++ {
		if rng.Intn(25) == 0 {
			d = newDeflater(in.dict())
		}
		raw := record()
		got, err := in.decode(d.frame(raw))
		if err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("record %d (%d bytes) inflates to %d bytes, %v", i, len(raw), len(got), err)
		}
	}
	// Restarting over the window keeps its matches: a record repeated
	// across a restart is one back-reference.
	again := []byte{recordBinary}
	for len(again) < 200 {
		again = append(again, words[rng.Intn(len(words))]...)
	}
	if _, err := in.decode(d.frame(again)); err != nil {
		t.Fatal(err)
	}
	d = newDeflater(in.dict())
	if p := d.frame(again); len(p) > 16 {
		t.Fatalf("a %d-byte record repeated across a restart deflates to %d bytes", len(again), len(p))
	} else if got, err := in.decode(p); err != nil || !bytes.Equal(got, again) {
		t.Fatalf("the repeated record inflates to %q, %v", got, err)
	}
	for _, d := range []*deflater{newDeflater(nil), newDeflater(in.dict())} {
		d.frame(record())
		d = d.fresh()
		var fresh inflater
		for i := 0; i < 20; i++ {
			raw := record()
			if got, err := fresh.decode(d.frame(raw)); err != nil || !bytes.Equal(got, raw) {
				t.Fatalf("record %d on a fresh log inflates to %d of %d bytes, %v", i, len(got), len(raw), err)
			}
		}
	}
}

// deflateBomb is a compressed record that declares declared bytes and
// inflates to far more: size zero bytes behind the binary format byte.
func deflateBomb(declared, size int) []byte {
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flate.BestCompression)
	fw.Write([]byte{recordBinary})
	fw.Write(make([]byte, size))
	fw.Flush()
	chunk := bytes.TrimSuffix(buf.Bytes(), syncTail)
	return append(binary.AppendUvarint([]byte{recordCompressed}, uint64(declared)), chunk...)
}

// TestCompressedRecordRefusals: a compressed record is refused unless it
// inflates to exactly its declared length, at most wal.MaxRecordSize, and
// to a binary record. A deflate bomb is refused after inflating one byte
// past what it declares, not all of it.
func TestCompressedRecordRefusals(t *testing.T) {
	good := newDeflater(nil).frame([]byte{recordBinary, 1, 2, 3})
	withLength := func(n uint64) []byte {
		hdr := binary.AppendUvarint([]byte{recordCompressed}, n)
		return append(hdr, good[2:]...)
	}
	cases := map[string][]byte{
		"no length":          {recordCompressed},
		"zero length":        withLength(0),
		"length past max":    withLength(maxRecordSize + 1),
		"declares more":      withLength(5),
		"declares less":      withLength(3),
		"cut chunk":          good[:3],
		"holds JSON":         newDeflater(nil).frame([]byte(`{"seq":1}`)),
		"holds a compressed": newDeflater(nil).frame(good),
		"deflate bomb":       deflateBomb(100, 64<<20),
	}
	if _, err := new(inflater).decode(good); err != nil {
		t.Fatalf("the unaltered record: %v", err)
	}
	for name, payload := range cases {
		var in inflater
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := in.decode(payload)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s: refusing it allocated %d bytes", name, alloc)
		}
	}
}

// walSizeGauge reads graphitti_wal_size_bytes for one shard label off the
// process registry.
func walSizeGauge(t *testing.T, shard string) int64 {
	t.Helper()
	var b bytes.Buffer
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	prefix := `graphitti_wal_size_bytes{shard="` + shard + `"} `
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("no %s sample", strings.TrimSpace(prefix))
	return 0
}

// TestWALSizeGaugeFollowsTheLog: graphitti_wal_size_bytes reads the live
// log's file size right after Open over a non-empty log and right after a
// compaction rotates to a fresh one, with no append in between. Another
// store of the same shard label writes last before the reopen, so a gauge
// only appends set reads that store's size.
func TestWALSizeGaugeFollowsTheLog(t *testing.T) {
	const shard = "size-gauge"
	opts := Options{NoSync: true, CompactThreshold: -1, Store: core.StoreOptions{Shard: shard}}
	dir, other := t.TempDir(), t.TempDir()
	for _, c := range []struct {
		dir  string
		anns int
	}{{dir, 20}, {other, 3}} {
		s, err := Open(c.dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		seedStore(t, s, c.anns)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if size, g := s.Stats().LogSize, walSizeGauge(t, shard); size <= wal.HeaderSize || g != size {
		t.Fatalf("after reopening a %d-byte log the gauge reads %d", size, g)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if size, g := s.Stats().LogSize, walSizeGauge(t, shard); size != wal.HeaderSize || g != size {
		t.Fatalf("after rotating to a %d-byte log the gauge reads %d", size, g)
	}
}

// TestCompactionCountsDecodedBytes: the compaction trigger reads the
// log's decoded size — its header and, per record, a frame header and
// the decoded payload — so a store compacts at the sequence numbers where
// the file of a log of raw records would have crossed the threshold.
// Measured by a store that never compacts over the same ops, and kept
// across a reopen halfway.
func TestCompactionCountsDecodedBytes(t *testing.T) {
	ops := workload.RecoveryScenario(workload.DefaultRecovery)
	const threshold = 16 << 10
	rawDir := t.TempDir()
	raw, err := Open(rawDir, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.ApplyOps(raw, ops); err != nil {
		t.Fatal(err)
	}
	if err := raw.Close(); err != nil {
		t.Fatal(err)
	}
	_, decoded := walPayloads(t, rawDir)
	var want []uint64
	size := int64(wal.HeaderSize)
	for i, p := range decoded {
		if size += int64(8 + len(p)); size >= threshold {
			want = append(want, uint64(i+1))
			size = wal.HeaderSize
		}
	}
	if len(want) < 3 {
		t.Fatalf("the scenario crosses %d B only %d times", threshold, len(want))
	}

	dir := t.TempDir()
	opts := Options{NoSync: true, CompactThreshold: threshold}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for i, op := range ops {
		if i == len(ops)/2 {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(dir, opts); err != nil {
				t.Fatal(err)
			}
		}
		before := s.Stats().SnapshotSeq
		if err := op.Apply(s); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.SnapshotSeq != before {
			got = append(got, st.SnapshotSeq)
		}
	}
	if err := s.w.Sync(); err != nil {
		t.Fatal(err)
	}
	_, tail := walPayloads(t, dir)
	size = wal.HeaderSize
	for _, p := range tail {
		size += int64(8 + len(p))
	}
	if s.w.Size()+s.saved != size {
		t.Errorf("the trigger reads %d B, the log decodes to %d", s.w.Size()+s.saved, size)
	}
	s.Close()
	if !slices.Equal(got, want) {
		t.Fatalf("checkpoints at seqs %v, a log of raw records compacts at %v", got, want)
	}
}

// TestAppendAfterTornCompressedTail cuts a log of compressed records at
// every byte offset inside its last two frames. Each cut is reopened,
// appended to — the writer resumes over the window of what survived — and
// reopened again: the export equals a serial replay of the surviving
// prefix plus the appended ops. The same holds over a log a compaction
// began, and after Reopen of a store a torn write degraded, for a write
// torn at every byte of its frame.
func TestAppendAfterTornCompressedTail(t *testing.T) {
	ops := workload.RecoveryScenario(workload.RecoveryConfig{Seed: 5, Images: 3, Ops: 60})
	const n, m = 40, 6 // ops logged before the cut, ops appended after it
	exports := map[int][]byte{}
	serialExport := func(k int) []byte {
		if e, ok := exports[k]; ok {
			return e
		}
		cs := core.NewStore()
		if err := workload.ApplyOps(workload.AsSink(cs), ops[:k]); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := persist.Write(cs, &b); err != nil {
			t.Fatal(err)
		}
		exports[k] = b.Bytes()
		return b.Bytes()
	}
	// appendAndReopen appends m ops behind the k that s recovered, closes
	// it and checks the reopened directory against the serial replay.
	appendAndReopen := func(t *testing.T, what string, dir string, s *Store) {
		t.Helper()
		k := int(s.Stats().Seq)
		if err := workload.ApplyOps(s, ops[k:k+m]); err != nil {
			t.Fatalf("%s: append: %v", what, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, fastOpts)
		if err != nil {
			t.Fatalf("%s: reopen after the append: %v", what, err)
		}
		defer s.Close()
		var got bytes.Buffer
		if err := persist.Write(s.Core(), &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), serialExport(k+m)) {
			t.Fatalf("%s: export differs from a serial replay of %d ops", what, k+m)
		}
	}
	// template writes ops[:n] to a closed directory, compacting after
	// ops[:compactAt] when compactAt > 0.
	template := func(t *testing.T, compactAt int) string {
		dir := t.TempDir()
		s, err := Open(dir, fastOpts)
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.ApplyOps(s, ops[:compactAt]); err != nil {
			t.Fatal(err)
		}
		if compactAt > 0 {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if err := workload.ApplyOps(s, ops[compactAt:n]); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	copyDir := func(t *testing.T, tmpl string) string {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(tmpl)); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	cuts := func(t *testing.T, compactAt int) {
		tmpl := template(t, compactAt)
		logged, _ := walPayloads(t, tmpl)
		if len(logged) != n-compactAt || logged[len(logged)-1][0] != recordCompressed {
			t.Fatalf("the template logs %d records, want %d compressed ones", len(logged), n-compactAt)
		}
		end := int64(wal.HeaderSize)
		for _, p := range logged {
			end += int64(8 + len(p))
		}
		last := end - int64(8+len(logged[len(logged)-1]))
		first := last - int64(8+len(logged[len(logged)-2]))
		for cut := first; cut < end; cut++ {
			dir := copyDir(t, tmpl)
			if err := os.Truncate(filepath.Join(dir, logFile), cut); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, fastOpts)
			if err != nil {
				t.Fatalf("cut at %d: %v", cut, err)
			}
			want := uint64(n - 2)
			if cut >= last {
				want = n - 1
			}
			if st := s.Stats(); st.Seq != want {
				s.Close()
				t.Fatalf("cut at %d recovers seq %d, want %d", cut, st.Seq, want)
			}
			appendAndReopen(t, "cut at "+strconv.FormatInt(cut, 10), dir, s)
		}
	}
	t.Run("cut", func(t *testing.T) { cuts(t, 0) })
	t.Run("cut after a compaction", func(t *testing.T) { cuts(t, 20) })

	t.Run("reopen after a torn write", func(t *testing.T) {
		tmpl := template(t, 0)
		probe := copyDir(t, tmpl)
		s, err := Open(probe, fastOpts)
		if err != nil {
			t.Fatal(err)
		}
		before := s.Stats().LogSize
		if err := ops[n].Apply(s); err != nil {
			t.Fatal(err)
		}
		frame := int(s.Stats().LogSize - before)
		s.Close()
		for short := 0; short <= frame; short++ {
			dir := copyDir(t, tmpl)
			sc := faultfs.NewScript()
			s, err := Open(dir, Options{NoSync: true, CompactThreshold: -1, Inject: sc})
			if err != nil {
				t.Fatal(err)
			}
			sc.FailAt(faultfs.OpWrite, 1, faultfs.Fault{Err: faultfs.Errno(faultfs.OpWrite, syscall.EIO), Short: short})
			if err := ops[n].Apply(s); !errors.Is(err, ErrDegraded) {
				t.Fatalf("write torn at %d of %d bytes: %v", short, frame, err)
			}
			if _, err := s.Reopen(); err != nil {
				t.Fatalf("write torn at %d of %d bytes: reopen: %v", short, frame, err)
			}
			want := uint64(n)
			if short == frame {
				want = n + 1 // the whole frame reached the file: it replays
			}
			if st := s.Stats(); st.Seq != want {
				s.Close()
				t.Fatalf("write torn at %d of %d bytes recovers seq %d, want %d", short, frame, st.Seq, want)
			}
			appendAndReopen(t, "write torn at "+strconv.Itoa(short), dir, s)
		}
	})
}
