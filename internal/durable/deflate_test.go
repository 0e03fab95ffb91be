package durable

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/deflate"
	"graphitti/internal/persist"
	"graphitti/internal/workload"
)

// flateFramer frames records the way the log's compressor did before it
// had its own encoder: one compress/flate writer at level 5 for the life
// of the log, a Flush per record, the sync flush's 00 00 ff ff cut off.
// It is the oracle the encoder's sizes are held to.
type flateFramer struct {
	fw  *flate.Writer
	buf bytes.Buffer
}

func newFlateFramer(dict []byte) *flateFramer {
	f := new(flateFramer)
	f.fw, _ = flate.NewWriterDict(&f.buf, 5, dict)
	return f
}

func (f *flateFramer) frame(raw []byte) []byte {
	f.buf.Reset()
	f.buf.Write(binary.AppendUvarint([]byte{recordCompressed}, uint64(len(raw))))
	f.fw.Write(raw)
	f.fw.Flush()
	return bytes.TrimSuffix(f.buf.Bytes(), syncTail)
}

// benchRecords is the binary records of n commits of the live benchmark's
// shape (workload.BenchmarkShaped), as a log holds them.
func benchRecords(t testing.TB, n int) [][]byte {
	t.Helper()
	cs, err := workload.BenchmarkShaped(n)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := persist.Export(cs)
	if err != nil {
		t.Fatal(err)
	}
	records := make([][]byte, 0, n)
	for i := range snap.Annotations {
		op := persist.Op{Kind: core.OpCommitAnnotation, Annotation: &snap.Annotations[i]}
		records = append(records, encodeRecord(uint64(i+1), op))
	}
	return records
}

// TestDeflaterSizeParity: over the records of a recovery scenario and of
// benchmark-shaped commits, one log's chunks add up to at most 0.1% more
// than compress/flate level 5 writes for the same records.
func TestDeflaterSizeParity(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.ApplyOps(s.Apply, workload.RecoveryScenario(workload.DefaultRecovery)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, records := walPayloads(t, dir)
	records = append(records, benchRecords(t, 1700)...)
	if len(records) < 2000 {
		t.Fatalf("only %d records", len(records))
	}

	d, oracle := newDeflater(nil), newFlateFramer(nil)
	var in inflater
	var raw, got, want int
	for i, r := range records {
		p := d.frame(r)
		if out, err := in.decode(p); err != nil || !bytes.Equal(out, r) {
			t.Fatalf("record %d inflates to %d of %d bytes, %v", i, len(out), len(r), err)
		}
		raw, got, want = raw+len(r), got+len(p), want+len(oracle.frame(r))
	}
	t.Logf("%d records of %d bytes: %d bytes framed, %d by compress/flate level 5 (%+.3f%%)",
		len(records), raw, got, want, 100*(float64(got)/float64(want)-1))
	if float64(got) > 1.001*float64(want) {
		t.Errorf("%d bytes framed, want at most 1.001 × compress/flate's %d", got, want)
	}
}

// liveHeap is the live heap after the collector has settled.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	for {
		last := m.HeapAlloc
		runtime.GC()
		runtime.ReadMemStats(&m)
		if m.HeapAlloc >= last {
			return m.HeapAlloc
		}
	}
}

// TestDeflaterFootprint: after 10k benchmark-shaped records, what one
// log's compressor keeps live is at most 192 KiB. A compress/flate writer
// at level 5, what a log kept before, is logged beside it.
func TestDeflaterFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("frames 10k records")
	}
	records := benchRecords(t, 10000)
	held := func(newFrame func() func([]byte) []byte) int64 {
		before := liveHeap()
		frame := newFrame()
		for _, r := range records {
			frame(r)
		}
		after := liveHeap()
		runtime.KeepAlive(frame)
		return int64(after) - int64(before)
	}
	own := held(func() func([]byte) []byte { return newDeflater(nil).frame })
	oracle := held(func() func([]byte) []byte { return newFlateFramer(nil).frame })
	runtime.KeepAlive(records)
	t.Logf("after %d records one compressor holds %d KiB; a compress/flate level 5 writer %d KiB",
		len(records), own>>10, oracle>>10)
	if own > 192<<10 {
		t.Errorf("one compressor holds %d bytes, want at most 192 KiB", own)
	}
}

// BenchmarkFrame frames benchmark-shaped records, one per op, through the
// log's encoder and through compress/flate level 5.
func BenchmarkFrame(b *testing.B) {
	records := benchRecords(b, 4000)
	for _, c := range []struct {
		name  string
		frame func([]byte) []byte
	}{
		{"deflater", newDeflater(nil).frame},
		{"flate-5", newFlateFramer(nil).frame},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				c.frame(records[i%len(records)])
				i++
			}
		})
	}
}

// FuzzWALDeflate drives one log's compressor with records cut from the
// fuzzer's bytes, 0 to 200 KiB of them behind the binary format byte, and
// restarts it at the points the fuzzer picks: over the recovered window,
// as a reopened log's is, or for a fresh log, as a compaction's is. Every
// record inflates back to its bytes through a reader that restarts only
// with a fresh log, and none is longer than its bytes written as stored
// blocks: 5 bytes per 65,535 and the closing empty block's one byte.
//
// The same records, concatenated, are also one checkpoint-like stream
// (deflate.Writer), written in pseudo-random splits and then closed:
// compress/flate's reader inflates it to their bytes and reaches its end
// at the stream's final block, with no byte left after it; and it is no
// longer than the fixed codes could make it, 9 bits per byte at most.
//
// The bytes are a sequence of steps, each a byte h and then:
//   - h%4 == 0: restart over the recovered window;
//   - h%4 == 1: restart for a fresh log;
//   - otherwise, a record: a uvarint size (mod 200 KiB + 1) and as many
//     of the bytes that follow as there are; the rest of the size is that
//     prefix repeated when h&4 is set, else pseudo-random bytes. Its
//     splits in the stream are drawn from a source seeded by h and size.
func FuzzWALDeflate(f *testing.F) {
	f.Add([]byte{2, 100, 'a', 'b', 'c', 6, 100, 'a', 'b', 'c', 0, 6, 100, 'a', 'b', 'c'})
	f.Add([]byte{2, 0x80, 0x80, 0x04, 1, 2, 3, 0, 2, 0x80, 0x80, 0x04, 1, 2, 3})
	f.Add([]byte{6, 0x80, 0x80, 0x0c, 'x', 'y', 1, 6, 0xff, 0xff, 0x03, 'z'})
	f.Add([]byte{2, 0xff, 0xff, 0x01, 7, 2, 0x80, 0x80, 0x02, 7, 0, 6, 0x80, 0x80, 0x01, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := newDeflater(nil)
		var in inflater
		var all, z bytes.Buffer
		zw := deflate.NewWriter(&z)
		for len(data) > 0 {
			h := data[0]
			data = data[1:]
			switch h % 4 {
			case 0:
				d = newDeflater(in.dict())
				continue
			case 1:
				d, in = d.fresh(), inflater{}
				continue
			}
			size, k := binary.Uvarint(data)
			if k <= 0 {
				break
			}
			data = data[k:]
			size %= 200<<10 + 1
			body := data[:min(uint64(len(data)), size)]
			data = data[len(body):]
			raw := append(make([]byte, 0, 1+size), recordBinary)
			raw = append(raw, body...)
			rng := rand.New(rand.NewSource(int64(size)))
			for uint64(len(raw)) <= size {
				if h&4 != 0 && len(body) > 0 {
					raw = append(raw, body[:min(len(body), int(size)+1-len(raw))]...)
				} else {
					raw = append(raw, byte(rng.Intn(256)))
				}
			}
			p := d.frame(raw)
			n, w := binary.Uvarint(p[1:])
			if chunk, stored := len(p)-1-w, len(raw)+5*((len(raw)+maxStored-1)/maxStored)+1; chunk > stored {
				t.Fatalf("a %d-byte record framed to a %d-byte chunk, stored blocks take %d", len(raw), chunk, stored)
			}
			if out, err := in.decode(p); err != nil || !bytes.Equal(out, raw) || n != uint64(len(raw)) {
				t.Fatalf("a %d-byte record inflates to %d bytes, %v", len(raw), len(out), err)
			}
			all.Write(raw)
			for cut := rand.New(rand.NewSource(int64(h)<<32 | int64(size))); len(raw) > 0; {
				n := 1 + cut.Intn(min(len(raw), 70<<10))
				if _, err := zw.Write(raw[:n]); err != nil {
					t.Fatal(err)
				}
				raw = raw[n:]
			}
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if bound := all.Len() + all.Len()/8 + 2; z.Len() > bound {
			t.Fatalf("%d bytes stream to %d, more than the fixed codes' %d", all.Len(), z.Len(), bound)
		}
		r := bytes.NewReader(z.Bytes())
		if out, err := io.ReadAll(flate.NewReader(r)); err != nil || !bytes.Equal(out, all.Bytes()) || r.Len() != 0 {
			t.Fatalf("%d bytes stream to %d that inflate to %d, %v, with %d bytes after the final block",
				all.Len(), z.Len(), len(out), err, r.Len())
		}
	})
}

// maxStored is the most bytes one stored block holds.
const maxStored = 65535

// TestDeflaterSkewedRecords: records whose bytes are drawn so that byte k
// is twice as likely as byte k+1 need literal codes past DEFLATE's 15
// bits before they are limited, and the larger ones span several blocks
// and window slides. Each inflates to its bytes, smaller than it is.
func TestDeflaterSkewedRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := newDeflater(nil)
	var in inflater
	for _, size := range []int{1 << 10, 40 << 10, 300 << 10} {
		raw := make([]byte, size)
		raw[0] = recordBinary
		for i := 1; i < size; i++ {
			for raw[i] < 40 && rng.Intn(2) == 0 {
				raw[i]++
			}
		}
		p := d.frame(raw)
		if out, err := in.decode(p); err != nil || !bytes.Equal(out, raw) {
			t.Fatalf("a skewed %d-byte record inflates to %d bytes, %v", size, len(out), err)
		}
		if len(p) >= size/2 {
			t.Errorf("a skewed %d-byte record framed to %d bytes", size, len(p))
		}
	}
}
