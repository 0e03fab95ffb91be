package durable

import (
	"encoding/binary"
	"math/bits"
)

// window is what a compressed record may refer back into: the last
// windowSize bytes of the log's decoded payloads, kept in a buffer of at
// most twice that so a slide is an occasional copy. The deflater and the
// inflater of a log each keep one.
type window []byte

// push adds a decoded payload.
func (w *window) push(p []byte) {
	if len(p) >= windowSize {
		*w = append((*w)[:0], p[len(p)-windowSize:]...)
		return
	}
	if len(*w)+len(p) > 2*windowSize {
		w.slide()
	}
	*w = append(*w, p...)
}

// slide drops all but the last windowSize bytes.
func (w *window) slide() {
	if n := len(*w) - windowSize; n > 0 {
		*w = append((*w)[:0], (*w)[n:]...)
	}
}

// dict returns the last windowSize bytes.
func (w window) dict() []byte {
	if len(w) > windowSize {
		return w[len(w)-windowSize:]
	}
	return w
}

// The matcher follows compress/flate level 5: hash chains over 4-byte
// prefixes, and lazy matching that stops looking for a better match past
// lazyLen, takes a match of niceLen at once and walks at most chainLen
// candidates. Level 5's good length (8), which quarters the walk, never
// applies there: every search starts from a length below it. The head
// table is smaller than compress/flate's (8K entries, not 128K), since a
// log's window is one 32 KiB buffer, not a stream's megabytes.
const (
	minMatch   = 4
	maxMatch   = 258
	lazyLen    = 16
	niceLen    = 32
	chainLen   = 32
	hashBits   = 13
	windowMask = windowSize - 1
	// maxStored is the most bytes one stored block holds.
	maxStored = 65535
	// blockTokens is the most tokens one Huffman block codes, as in
	// compress/flate.
	blockTokens = 1 << 14
	// keepOut and keepTokens are the largest buffers kept between
	// records; a larger record's are dropped after it.
	keepOut    = 16 << 10
	keepTokens = 1 << 10
)

// deflater compresses one log's binary records into compressed ones. A
// record is Huffman blocks, each of fixed or its own codes, whichever is
// smaller, or stored blocks when those are smaller than all of them. It
// ends in the empty stored block a sync flush writes, less that block's
// LEN and NLEN (00 00 ff ff, as in RFC 7692): whole on its own, yet its
// matches may refer back into the records before it.
//
// Positions index win. A chain entry is a position plus one, 0 for none,
// so it fits a uint16 while win holds at most 2*windowSize bytes; a slide
// drops exactly windowSize bytes, keeps every position's prev slot, and
// rebases the entries.
type deflater struct {
	win window
	// head is, per hash, the latest position with that hash; prev is, per
	// position mod windowSize, the position before it with the same hash.
	head [1 << hashBits]uint16
	prev [windowSize]uint16

	// index is the next position of win to encode. Within a record, the
	// lazy matcher holds the match found at index-1 (length below
	// minMatch: none), and pending is set while win[index-1] is untokened.
	index          int
	length, offset int
	pending        bool

	// tokens is the block being matched; out the record being written.
	tokens []token
	huff   huffman
	out    []byte
	bits   uint64
	nbits  uint
}

// newDeflater returns the compressor of a log whose decoded payloads so
// far end with dict (empty for a fresh log).
func newDeflater(dict []byte) *deflater {
	d := &deflater{win: make(window, 0, 2*windowSize)}
	d.win.push(dict)
	for p := 0; p+minMatch <= len(d.win); p++ {
		d.insert(p)
	}
	d.index = len(d.win)
	return d
}

// fresh readies d for a new, empty log. A prev entry is reached only
// through head, so clearing head forgets them all.
func (d *deflater) fresh() *deflater {
	d.win, d.index = d.win[:0], 0
	clear(d.head[:])
	return d
}

// frame returns the compressed record of raw, a binary one. The slice is
// valid until the next call; the WAL copies it on append.
func (d *deflater) frame(raw []byte) []byte {
	if cap(d.out) > keepOut {
		d.out = nil
	}
	if cap(d.tokens) > keepTokens {
		d.tokens = nil
	}
	d.out = binary.AppendUvarint(append(d.out[:0], recordCompressed), uint64(len(raw)))
	start := len(d.out)
	d.length, d.offset, d.pending = minMatch-1, 0, false
	for rest := raw; ; d.slide() {
		n := min(len(rest), 2*windowSize-len(d.win))
		d.win, rest = append(d.win, rest[:n]...), rest[n:]
		d.deflate(len(rest) == 0)
		if len(rest) == 0 {
			break
		}
	}
	d.writeBlock()
	blocks := (len(raw) + maxStored - 1) / maxStored
	if stored := 8 * (len(raw) + 5*blocks); stored < 8*(len(d.out)-start)+int(d.nbits) {
		d.out, d.bits, d.nbits = d.out[:start], 0, 0
		for p := raw; len(p) > 0; {
			n := min(len(p), maxStored)
			d.out = append(d.out, 0, byte(n), byte(n>>8), ^byte(n), ^byte(n>>8))
			d.out, p = append(d.out, p[:n]...), p[n:]
		}
	}
	// The sync flush's empty stored block: its header and the padding to
	// a byte.
	d.put(0, 3)
	for d.nbits > 0 {
		d.out = append(d.out, byte(d.bits))
		d.bits >>= 8
		d.nbits -= min(d.nbits, 8)
	}
	return d.out
}

// deflate tokens win from index on: up to its end when final, else
// while a longest match still fits ahead of index.
func (d *deflater) deflate(final bool) {
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
		if chain >= max(d.index-windowSize, 0) && ahead > prevLength && prevLength < lazyLen {
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
func (d *deflater) emit(t token) {
	if d.tokens = append(d.tokens, t); len(d.tokens) == blockTokens {
		d.writeBlock()
	}
}

// findMatch walks the hash chain from i, the latest earlier position with
// index's hash, and sets length and offset to the longest match at index
// longer than length. A match of minMatch bytes counts only within 4 KiB.
func (d *deflater) findMatch(i, ahead int) {
	look := min(ahead, maxMatch)
	w := d.win[:d.index+look]
	cur := w[d.index:]
	nice := min(look, niceLen)
	minIndex := d.index - windowSize
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
func (d *deflater) insert(p int) int {
	h := (binary.BigEndian.Uint32(d.win[p:]) * 0x1e35a7bd) >> (32 - hashBits)
	prev := d.head[h]
	d.prev[p&windowMask] = prev
	d.head[h] = uint16(p + 1)
	return int(prev) - 1
}

// slide drops the older half of a full win, keeping the window index
// refers back into, and rebases the chains onto what is left.
func (d *deflater) slide() {
	d.win.slide()
	d.index -= windowSize
	for _, t := range [][]uint16{d.head[:], d.prev[:]} {
		for i, v := range t {
			t[i] = v - min(v, windowSize)
		}
	}
}
