package deflate

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"slices"
	"testing"
)

// inflateStream inflates z, one whole stream, through compress/flate's
// reader: it must end at its final block, with no byte after it.
func inflateStream(t *testing.T, z []byte) []byte {
	t.Helper()
	r := bytes.NewReader(z)
	got, err := io.ReadAll(flate.NewReader(r))
	if err != nil {
		t.Fatalf("the stream does not inflate: %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes after the stream's final block", r.Len())
	}
	return got
}

// stream writes body to a Writer in the writes splits cuts it into and
// closes it. It returns the stream and how many of its bytes reached the
// underlying writer before Close.
func stream(t *testing.T, body []byte, splits *rand.Rand) (z []byte, early int) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for p := body; len(p) > 0; {
		n := min(len(p), splits.Intn(20<<10))
		if k, err := w.Write(p[:n]); k != n || err != nil {
			t.Fatalf("Write of %d bytes: %d, %v", n, k, err)
		}
		p = p[n:]
	}
	early = buf.Len()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte{1}); err == nil {
		t.Fatal("a write after Close succeeded")
	}
	return buf.Bytes(), early
}

// storedBlocks walks z as stored blocks and returns how many there are,
// or 0 when it is anything else.
func storedBlocks(z []byte) int {
	for n := 1; len(z) >= 5 && z[0]&^1 == 0; n++ {
		size := int(z[1]) | int(z[2])<<8
		if z[3] != ^z[1] || z[4] != ^z[2] || len(z) < 5+size {
			return 0
		}
		if final := z[0] == 1; final {
			if len(z) != 5+size {
				return 0
			}
			return n
		}
		z = z[5+size:]
	}
	return 0
}

// TestStreamCases: the stream of an empty body, of one that crosses the
// window's slide, of one that crosses a block's token limit and of an
// incompressible one, each written in random splits, inflates through
// compress/flate's reader to its bytes and ends at its one final block.
func TestStreamCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var text []byte
	for len(text) < 200<<10 {
		text = append(text, []byte("annotation "+string(rune('a'+rng.Intn(26)))+" of segment ")...)
		text = append(text, byte('0'+rng.Intn(10)), byte('0'+rng.Intn(10)), '\n')
	}
	skewed := make([]byte, 200<<10)
	for i := range skewed {
		for skewed[i] < 40 && rng.Intn(2) == 0 {
			skewed[i]++
		}
	}
	noise := make([]byte, 150<<10+7)
	rng.Read(noise)

	for _, c := range []struct {
		name  string
		body  []byte
		check func(t *testing.T, z []byte, early int)
	}{
		{"empty", nil, func(t *testing.T, z []byte, _ int) {
			if !bytes.Equal(z, []byte{0x03, 0x00}) {
				t.Errorf("the empty stream is %x, want the empty final fixed block 0300", z)
			}
		}},
		{"across the window's slide", text, func(t *testing.T, z []byte, _ int) {
			if len(z) > len(text)/8 {
				t.Errorf("%d bytes of text deflate to %d", len(text), len(z))
			}
		}},
		{"across the block token limit", skewed, func(t *testing.T, z []byte, early int) {
			if early == 0 || len(z) >= len(skewed)/2 {
				t.Errorf("%d skewed bytes deflate to %d, %d of them before Close: want a full block written early and half the size",
					len(skewed), len(z), early)
			}
		}},
		{"incompressible, all stored", noise, func(t *testing.T, z []byte, _ int) {
			blocks := (len(noise) + blockTokens - 1) / blockTokens
			if n := storedBlocks(z); n != blocks || len(z) != len(noise)+5*blocks {
				t.Errorf("%d random bytes deflate to %d in %d stored blocks, want %d in %d",
					len(noise), len(z), n, len(noise)+5*blocks, blocks)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			z, early := stream(t, c.body, rand.New(rand.NewSource(int64(len(c.body)))))
			if got := inflateStream(t, z); !bytes.Equal(got, c.body) {
				t.Fatalf("%d bytes inflate to %d others", len(c.body), len(got))
			}
			c.check(t, z, early)
		})
	}
}

// TestStreamWriteError: a write error from the underlying writer is kept
// and returned by the calls after it.
func TestStreamWriteError(t *testing.T) {
	w := NewWriter(failing{})
	body := make([]byte, 200<<10)
	rand.New(rand.NewSource(2)).Read(body)
	if _, err := w.Write(body); err != io.ErrShortWrite {
		t.Fatalf("Write: %v, want the underlying writer's error", err)
	}
	if err := w.Close(); err != io.ErrShortWrite {
		t.Fatalf("Close: %v, want the underlying writer's error", err)
	}
}

type failing struct{}

func (failing) Write([]byte) (int, error) { return 0, io.ErrShortWrite }

// TestHuffmanLengthsLimited: code lengths built for counts as skewed as
// Fibonacci numbers, whose unlimited code is far deeper than DEFLATE
// allows, and for random counts, are at most the limit and make a
// complete prefix code, the most frequent symbols the shortest.
func TestHuffmanLengthsLimited(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h huffman
	for trial := 0; trial < 200; trial++ {
		n, limit := 3+rng.Intn(numLit-2), 15
		if trial%2 == 1 {
			n, limit = 3+rng.Intn(numCodeLen-2), 7
		}
		freq := make([]uint32, n)
		a, b := uint32(1), uint32(1)
		for s := range freq {
			if trial%4 < 2 {
				freq[s], a, b = a, b, min(a+b, 1<<20)
			} else {
				freq[s] = uint32(rng.Intn(50))
			}
		}
		var syms []uint32
		for s, f := range freq {
			if f > 0 {
				syms = append(syms, f<<9|uint32(s))
			}
		}
		lens := make([]uint8, n)
		h.lengths(syms, lens, limit)
		kraft := 0
		for s, l := range lens {
			if (l == 0) != (freq[s] == 0) || int(l) > limit {
				t.Fatalf("trial %d: symbol %d of count %d gets length %d, limit %d", trial, s, freq[s], l, limit)
			}
			if l > 0 {
				kraft += 1 << (limit - int(l))
			}
			for r, m := range lens {
				if freq[r] > freq[s] && m > l && l > 0 {
					t.Fatalf("trial %d: symbol %d of count %d is longer than %d of count %d", trial, r, freq[r], s, freq[s])
				}
			}
		}
		if len(syms) > 1 && kraft != 1<<limit {
			t.Fatalf("trial %d: the lengths fill %d of %d code space", trial, kraft, 1<<limit)
		}
	}
}

// TestDeflaterDeepCodes writes one block of literals, byte c 2^c times
// for c up to 16, for which an unlimited Huffman code (the end of block
// counted once) is 17 bits deep: the block's own codes, limited to 15
// bits, inflate to the literals as a whole stream.
func TestDeflaterDeepCodes(t *testing.T) {
	var raw []byte
	for c := 0; c <= 16; c++ {
		raw = append(raw, bytes.Repeat([]byte{byte(c)}, 1<<c)...)
	}
	rand.New(rand.NewSource(5)).Shuffle(len(raw), func(i, j int) { raw[i], raw[j] = raw[j], raw[i] })
	d := new(encoder)
	for _, c := range raw {
		d.tokens = append(d.tokens, literal(c))
	}
	d.writeBlock(true)
	if d.out[0]&0b110 != 0b100 || slices.Max(d.huff.lens[:d.huff.litLens]) != 15 {
		t.Fatalf("the block's first byte is %08b, its longest code %d bits: want its own codes, limited to 15",
			d.out[0], slices.Max(d.huff.lens[:d.huff.litLens]))
	}
	d.align()
	if got := inflateStream(t, d.out); !bytes.Equal(got, raw) {
		t.Fatalf("the block inflates to %d of %d bytes", len(got), len(raw))
	}
}
