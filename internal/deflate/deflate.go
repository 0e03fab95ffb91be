// Package deflate is the program's DEFLATE encoder (RFC 1951): a window,
// a matcher that follows compress/flate level 5, and a Huffman block
// coder. It has two faces over the same encoder:
//
//   - Records writes a write-ahead log's records. A record is a chunk
//     that ends in the empty stored block of a sync flush, less that
//     block's LEN and NLEN (00 00 ff ff, as in RFC 7692): whole on its
//     own, yet its matches may refer back into the records before it.
//   - Writer writes one whole stream, a checkpoint's body: its matches
//     run across everything written to it, and it ends in exactly one
//     final block.
//
// Either inflates with compress/flate's reader: a record through one
// primed with the log's window and given back its 00 00 ff ff, a stream
// as it is. A log's encoder keeps about 150 KiB and allocates nothing
// per record once its buffers have grown; a stream's makes about 300 KiB
// of buffers when it starts and nothing after.
package deflate

import (
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
)

// WindowSize is how far back a match may refer: DEFLATE's window.
const WindowSize = 32 << 10

// Window is what a match may refer back into: the last WindowSize bytes
// of what was encoded, kept in a buffer of at most twice that so a slide
// is an occasional copy. A log's encoder and its reader each keep one.
type Window []byte

// Push adds p, the latest bytes encoded or decoded.
func (w *Window) Push(p []byte) {
	if len(p) >= WindowSize {
		*w = append((*w)[:0], p[len(p)-WindowSize:]...)
		return
	}
	if len(*w)+len(p) > 2*WindowSize {
		w.slide()
	}
	*w = append(*w, p...)
}

// slide drops all but the last WindowSize bytes.
func (w *Window) slide() {
	if n := len(*w) - WindowSize; n > 0 {
		*w = append((*w)[:0], (*w)[n:]...)
	}
}

// Dict returns the last WindowSize bytes.
func (w Window) Dict() []byte {
	if len(w) > WindowSize {
		return w[len(w)-WindowSize:]
	}
	return w
}

// The matcher follows compress/flate level 5: hash chains over 4-byte
// prefixes, and lazy matching that stops looking for a better match past
// lazyLen, takes a match of niceLen at once and walks at most chainLen
// candidates. Level 5's good length (8), which quarters the walk, never
// applies there: every search starts from a length below it. The head
// tables are smaller than compress/flate's 128K entries. A log keeps its
// encoder for as long as it is open, and its records are small: its table
// has 8K entries. A stream's encoder lives for one checkpoint, whose body
// runs to megabytes: its 32K entries keep the chains it walks to the
// positions that share a prefix, within 0.1% of compress/flate's size.
const (
	minMatch       = 4
	maxMatch       = 258
	lazyLen        = 16
	niceLen        = 32
	chainLen       = 32
	recordHashBits = 13
	streamHashBits = 15
	windowMask     = WindowSize - 1
	// maxStored is the most bytes one stored block holds.
	maxStored = 65535
	// blockTokens is the most tokens one Huffman block codes, as in
	// compress/flate.
	blockTokens = 1 << 14
	// keepTokens is the largest token buffer Records keeps between
	// records; a larger record's is dropped after it.
	keepTokens = 1 << 10
	// streamOut is the room a Writer makes for a block's bytes, which it
	// writes on once the block is done: a block of benchmark-shaped
	// annotations codes to about 20 KiB.
	streamOut = 32 << 10
)

// encoder is what both faces share. A block is Huffman coded, with the
// fixed codes or its own, whichever is smaller; a record may instead be
// stored whole, and a stream's block stored on its own.
//
// Positions index win. A chain entry is a position plus one, 0 for none,
// so it fits a uint16 while win holds at most 2*WindowSize bytes; a slide
// drops exactly WindowSize bytes, keeps every position's prev slot, and
// rebases the entries.
type encoder struct {
	win Window
	// head is, per hash, the latest position with that hash; prev is, per
	// position mod WindowSize, the position before it with the same hash.
	// A hash is the top hashBits bits of a 4-byte prefix times a constant.
	head     []uint16
	hashBits uint8
	prev     [WindowSize]uint16

	// index is the next position of win to encode. The lazy matcher holds
	// the match found at index-1 (length below minMatch: none), and
	// pending is set while win[index-1] is untokened.
	index          int
	length, offset int
	pending        bool

	// tokens is the block being matched, and blockStart the position of
	// the first byte it covers: below 0 once that byte has slid out of
	// win. storeBlocks is set for a stream, whose blocks may be stored
	// each on its own.
	tokens      []token
	blockStart  int
	storeBlocks bool

	huff  huffman
	out   []byte
	bits  uint64
	nbits uint
}

// prime sizes d's head table to hashBits and makes dict, the bytes before
// the first to encode, the window.
func (d *encoder) prime(hashBits uint8, dict []byte) {
	d.head, d.hashBits = make([]uint16, 1<<hashBits), hashBits
	d.win = make(Window, 0, 2*WindowSize)
	d.win.Push(dict)
	for p := 0; p+minMatch <= len(d.win); p++ {
		d.insert(p)
	}
	d.index, d.blockStart = len(d.win), len(d.win)
	d.length = minMatch - 1
}

// fill appends p to win, sliding it when full, and tokens it: all of it
// when final, else up to where a longest match still fits ahead.
func (d *encoder) fill(p []byte, final bool) {
	for {
		if len(d.win) == 2*WindowSize {
			d.slide()
		}
		n := min(len(p), 2*WindowSize-len(d.win))
		d.win, p = append(d.win, p[:n]...), p[n:]
		d.deflate(final && len(p) == 0)
		if len(p) == 0 {
			return
		}
	}
}

// Records is the record face: it compresses one log's records, each
// against the window of the records before it.
type Records struct{ e encoder }

// NewRecords returns the encoder of a log whose records so far decode to
// bytes that end with dict (empty for a fresh log).
func NewRecords(dict []byte) *Records {
	r := new(Records)
	r.e.prime(recordHashBits, dict)
	return r
}

// Reset readies r for a new, empty log. A prev entry is reached only
// through head, so clearing head forgets them all.
func (r *Records) Reset() {
	r.e.win, r.e.index = r.e.win[:0], 0
	clear(r.e.head)
}

// Append appends the chunk of raw, the next record, to dst: Huffman
// blocks, or stored ones when those are smaller than all of them, then
// the sync flush less its 00 00 ff ff.
func (r *Records) Append(dst, raw []byte) []byte {
	d := &r.e
	if cap(d.tokens) > keepTokens {
		d.tokens = nil
	}
	d.out = dst
	start := len(dst)
	d.length, d.offset, d.pending = minMatch-1, 0, false
	d.fill(raw, true)
	d.writeBlock(false)
	blocks := (len(raw) + maxStored - 1) / maxStored
	if stored := 8 * (len(raw) + 5*blocks); stored < 8*(len(d.out)-start)+int(d.nbits) {
		d.out, d.bits, d.nbits = d.out[:start], 0, 0
		d.writeStored(raw, 0)
	}
	// The sync flush's empty stored block: its header and the padding to
	// a byte.
	d.put(0, 3)
	d.align()
	out := d.out
	d.out = nil
	return out
}

// Writer is the stream face: everything written to it is one DEFLATE
// stream, which Close ends. A write error is kept and returned by every
// later call.
type Writer struct {
	e   encoder
	w   io.Writer
	err error
}

// NewWriter returns a Writer that writes its stream to w. Its buffers
// are made at the size a block needs, so a stream's allocations do not
// grow with its length.
func NewWriter(w io.Writer) *Writer {
	z := &Writer{w: w}
	d := &z.e
	d.prime(streamHashBits, nil)
	d.storeBlocks = true
	d.tokens, d.out = make([]token, 0, blockTokens), make([]byte, 0, streamOut)
	d.huff.used, d.huff.seq = make([]uint16, 0, numLit), make([]uint16, 0, numLit+numDist)
	return z
}

// Write compresses p. The stream's bytes reach w a block at a time.
func (z *Writer) Write(p []byte) (int, error) {
	if z.err != nil {
		return 0, z.err
	}
	z.e.fill(p, false)
	if err := z.flush(); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Close ends the stream with its final block and writes what is left of
// it to w. It does not close w.
func (z *Writer) Close() error {
	if z.err != nil {
		return z.err
	}
	d := &z.e
	d.fill(nil, true)
	if len(d.tokens) > 0 {
		d.writeBlock(true)
	} else {
		// An empty final block with the fixed codes.
		c := fixedLit[endBlock]
		d.put(0b011|uint64(c.bits)<<3, 3+uint(c.n))
	}
	d.align()
	if err := z.flush(); err != nil {
		return err
	}
	z.err = errClosed
	return nil
}

var errClosed = errors.New("deflate: write to a closed stream")

// flush writes the whole bytes of the stream so far to w.
func (z *Writer) flush() error {
	if len(z.e.out) == 0 {
		return nil
	}
	if _, err := z.w.Write(z.e.out); err != nil {
		z.err = err
		return err
	}
	z.e.out = z.e.out[:0]
	return nil
}

// deflate tokens win from index on: up to its end when final, else
// while a longest match still fits ahead of index.
func (d *encoder) deflate(final bool) {
	end := len(d.win)
	maxInsert := end - minMatch + 1
	for {
		ahead := end - d.index
		if ahead < minMatch+maxMatch && !final {
			return
		}
		if ahead == 0 {
			if d.pending {
				d.emit(literal(d.win[d.index-1]))
				d.pending = false
			}
			return
		}
		chain := -1
		if d.index < maxInsert {
			chain = d.insert(d.index)
		}
		prevLength, prevOffset := d.length, d.offset
		d.length, d.offset = minMatch-1, 0
		if chain >= max(d.index-WindowSize, 0) && ahead > prevLength && prevLength < lazyLen {
			d.findMatch(chain, ahead)
		}
		if prevLength >= minMatch && d.length <= prevLength {
			// The match at index-1 is no worse than the one here: take it,
			// and hash the positions it covers.
			d.emit(match(prevLength, prevOffset))
			next := d.index + prevLength - 1
			for p := d.index + 1; p < min(next, maxInsert); p++ {
				d.insert(p)
			}
			d.index, d.pending, d.length = next, false, minMatch-1
			continue
		}
		if d.pending {
			d.emit(literal(d.win[d.index-1]))
		}
		d.index++
		d.pending = true
	}
}

// emit adds t to the block, writing the block once it is full.
func (d *encoder) emit(t token) {
	if d.tokens = append(d.tokens, t); len(d.tokens) == blockTokens {
		d.writeBlock(false)
	}
}

// findMatch walks the hash chain from i, the latest earlier position with
// index's hash, and sets length and offset to the longest match at index
// longer than length. A match of minMatch bytes counts only within 4 KiB.
func (d *encoder) findMatch(i, ahead int) {
	look := min(ahead, maxMatch)
	w := d.win[:d.index+look]
	cur := w[d.index:]
	nice := min(look, niceLen)
	minIndex := d.index - WindowSize
	for tries := chainLen; tries > 0; tries-- {
		if w[i+d.length] == cur[d.length] {
			if n := matchLen(w[i:i+look], cur); n > d.length && (n > minMatch || d.index-i <= 4096) {
				d.length, d.offset = n, d.index-i
				if n >= nice {
					return
				}
			}
		}
		if i == minIndex {
			return // its prev slot is index's now
		}
		if i = int(d.prev[i&windowMask]) - 1; i < max(minIndex, 0) {
			return
		}
	}
}

// matchLen returns the length of a and b's common prefix; len(a) <= len(b).
func matchLen(a, b []byte) int {
	n := 0
	for ; n+8 <= len(a); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)/8
		}
	}
	for ; n < len(a) && a[n] == b[n]; n++ {
	}
	return n
}

// insert adds position p to its hash chain and returns the position that
// headed the chain before it, -1 for none.
func (d *encoder) insert(p int) int {
	h := (binary.BigEndian.Uint32(d.win[p:]) * 0x1e35a7bd) >> (32 - d.hashBits)
	prev := d.head[h]
	d.prev[p&windowMask] = prev
	d.head[h] = uint16(p + 1)
	return int(prev) - 1
}

// slide drops the older half of a full win, keeping the window index
// refers back into, and rebases the chains onto what is left.
func (d *encoder) slide() {
	d.win.slide()
	d.index -= WindowSize
	d.blockStart -= WindowSize
	for _, t := range [][]uint16{d.head, d.prev[:]} {
		for i, v := range t {
			t[i] = v - min(v, WindowSize)
		}
	}
}
