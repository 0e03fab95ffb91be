package deflate

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// A token is one step of a block: a literal byte, or a match, which
// carries matchFlag, its length less 3 from bit 15, and its offset less 1
// below that.
type token uint32

const matchFlag = 1 << 31

func literal(c byte) token { return token(c) }

func match(length, offset int) token {
	return matchFlag | token(length-3)<<15 | token(offset-1)
}

// Alphabet sizes: literal/length symbols (256 is the end of a block),
// distance symbols, and code-length symbols.
const (
	numLit     = 286
	numDist    = 30
	numCodeLen = 19
	endBlock   = 256
)

// code is a Huffman code, bit-reversed since Huffman codes are written
// from their most significant bit, and its length.
type code struct {
	bits uint32
	n    uint8
}

// lengthSym is the symbol of each match length from 3, less 257, and its
// count of extra bits; the extra bits are the low bits of the length less
// 3.
var lengthSym [256]struct{ sym, extra uint8 }

// fixedLit and fixedDist are the fixed Huffman codes (RFC 1951 3.2.6).
var fixedLit [288]code
var fixedDist [numDist]code

func init() {
	for x := range lengthSym { // x is the length less 3
		switch {
		case x == 255:
			lengthSym[x].sym = 28
		case x < 8:
			lengthSym[x].sym = uint8(x)
		default:
			e := bits.Len(uint(x)) - 3
			lengthSym[x] = struct{ sym, extra uint8 }{uint8(4*(e+1) + x>>e&3), uint8(e)}
		}
	}
	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	canonical(lens[:], fixedLit[:])
	var dlens [numDist]uint8
	for s := range dlens {
		dlens[s] = 5
	}
	canonical(dlens[:], fixedDist[:])
}

// distSym returns the symbol of offset x+1 and its count of extra bits,
// the low bits of x.
func distSym(x uint32) (sym, extra uint32) {
	if x < 4 {
		return x, 0
	}
	e := uint32(bits.Len32(x)) - 2
	return 2*(e+1) + x>>e&1, e
}

// canonical sets codes to the canonical Huffman code of lens (RFC 1951
// 3.2.2); a symbol of length 0 gets none.
func canonical(lens []uint8, codes []code) {
	var count, next [16]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l < 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for s, l := range lens {
		codes[s] = code{}
		if l > 0 {
			codes[s] = code{uint32(bits.Reverse16(next[l]) >> (16 - l)), l}
			next[l]++
		}
	}
}

// huffman is a block's symbol counts and the codes built from them.
type huffman struct {
	// litFreq and distFreq count the block's symbols; used lists the
	// literal/length symbols that occur, in the order they first do.
	litFreq  [numLit]uint32
	distFreq [numDist]uint32
	used     []uint16
	// lens is the literal/length code lengths, then the distance ones:
	// the sequence a dynamic block's header sends, litLens and distLens
	// of each. seq is that sequence run-length coded, a code-length
	// symbol and then its extra bits from bit 8, and cgLens the lengths
	// of the code that codes it.
	lens              [numLit + numDist]uint8
	litLens, distLens int
	seq               []uint16
	cgFreq            [numCodeLen]uint32
	cgLens            [numCodeLen]uint8
	// lit, dist and cg are the codes of a block written with its own.
	lit  [numLit]code
	dist [numDist]code
	cg   [numCodeLen]code
	// syms and weights are lengths' scratch.
	syms, weights [numLit]uint32
}

// cgOrder is the order a dynamic block sends the code-length code's
// lengths in.
var cgOrder = [numCodeLen]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// cgExtra is each code-length symbol's count of extra bits.
var cgExtra = [numCodeLen]uint8{16: 2, 17: 3, 18: 7}

// writeBlock writes the block's tokens, if any, as one Huffman block with
// the fixed codes or its own, whichever is shorter, or, when storeBlocks
// is set and the bytes it covers are still in win, as stored blocks when
// those are shorter still. final marks it the stream's last.
func (d *encoder) writeBlock(final bool) {
	if len(d.tokens) == 0 {
		return
	}
	h := &d.huff
	h.used = append(h.used[:0], endBlock)
	h.litFreq[endBlock] = 1
	extra, fixed, covered := 0, 3+int(fixedLit[endBlock].n), 0
	for _, t := range d.tokens {
		s := int(t)
		covered++
		if t&matchFlag != 0 {
			l := lengthSym[t>>15&0xff]
			ds, de := distSym(uint32(t & 0x7fff))
			h.distFreq[ds]++
			s = 257 + int(l.sym)
			extra += int(l.extra) + int(de)
			fixed += int(fixedDist[ds].n) + int(l.extra) + int(de)
			covered += int(t>>15&0xff) + 2
		}
		if h.litFreq[s] == 0 {
			h.used = append(h.used, uint16(s))
		}
		h.litFreq[s]++
		fixed += int(fixedLit[s].n)
	}
	start := d.blockStart
	d.blockStart += covered
	dynamic := h.dynamicSize(extra)
	blocks := (covered + maxStored - 1) / maxStored
	stored := d.storeBlocks && start >= 0 && 8*(covered+5*blocks) < min(dynamic, fixed)
	var last uint64
	if final {
		last = 1
	}
	lit, dist := fixedLit[:numLit], fixedDist[:]
	switch {
	case stored: // written below, once the counts are cleared
	case dynamic < fixed:
		h.writeHeader(d, last)
		lit, dist = h.lit[:], h.dist[:]
	default:
		d.put(0b010|last, 3) // fixed codes
	}
	for _, s := range h.used {
		h.litFreq[s] = 0
	}
	h.distFreq = [numDist]uint32{}
	if stored {
		d.writeStored(d.win[start:start+covered], last)
		d.tokens = d.tokens[:0]
		return
	}

	for _, t := range d.tokens {
		if t&matchFlag == 0 {
			c := lit[t]
			d.put(uint64(c.bits), uint(c.n))
			continue
		}
		x := uint32(t >> 15 & 0xff)
		l := lengthSym[x]
		c := lit[257+int(l.sym)]
		d.put(uint64(c.bits)|uint64(x&(1<<l.extra-1))<<c.n, uint(c.n+l.extra))
		x = uint32(t & 0x7fff)
		ds, de := distSym(x)
		c = dist[ds]
		d.put(uint64(c.bits)|uint64(x&(1<<de-1))<<c.n, uint(c.n)+uint(de))
	}
	c := lit[endBlock]
	d.put(uint64(c.bits), uint(c.n))
	d.tokens = d.tokens[:0]
}

// dynamicSize builds the lengths of the block's own codes from its counts
// and returns the bits a block coded with them takes, header included;
// extra is its tokens' extra bits.
func (h *huffman) dynamicSize(extra int) int {
	clear(h.lens[:])
	syms := h.syms[:0]
	h.litLens = 257
	for _, s := range h.used {
		syms = append(syms, h.litFreq[s]<<9|uint32(s))
		h.litLens = max(h.litLens, int(s)+1)
	}
	lits := h.lens[:h.litLens]
	h.lengths(syms, lits, 15)
	size := 3 + 5 + 5 + 4 + extra
	for _, s := range h.used {
		size += int(h.litFreq[s]) * int(lits[s])
	}
	// A code for distances is sent even when no match needs one.
	syms, h.distLens = h.syms[:0], 1
	for s, f := range h.distFreq {
		if f > 0 {
			syms = append(syms, f<<9|uint32(s))
			h.distLens = s + 1
		}
	}
	if len(syms) == 0 {
		syms = append(syms, 1<<9)
	}
	dists := h.lens[h.litLens : h.litLens+h.distLens]
	h.lengths(syms, dists, 15)
	for s, f := range h.distFreq[:h.distLens] {
		size += int(f) * int(dists[s])
	}

	// The code lengths, run-length coded (RFC 1951 3.2.7): a length
	// repeated with 16, a run of zeros with 17 or 18.
	h.cgFreq = [numCodeLen]uint32{}
	h.seq = h.seq[:0]
	add := func(sym, x int) {
		h.seq = append(h.seq, uint16(sym|x<<8))
		h.cgFreq[sym]++
	}
	all := h.lens[:h.litLens+h.distLens]
	for i := 0; i < len(all); {
		l, run := all[i], 1
		for i+run < len(all) && all[i+run] == l {
			run++
		}
		i += run
		if l == 0 {
			for ; run >= 11; run -= min(run, 138) {
				add(18, min(run, 138)-11)
			}
			if run >= 3 {
				add(17, run-3)
				run = 0
			}
		} else {
			add(int(l), 0)
			for run--; run >= 3; run -= min(run, 6) {
				add(16, min(run, 6)-3)
			}
		}
		for ; run > 0; run-- {
			add(int(l), 0)
		}
	}
	syms = h.syms[:0]
	for s, f := range h.cgFreq {
		if f > 0 {
			syms = append(syms, f<<9|uint32(s))
		}
		size += int(f) * int(cgExtra[s])
	}
	clear(h.cgLens[:])
	h.lengths(syms, h.cgLens[:], 7)
	for s, f := range h.cgFreq {
		size += int(f) * int(h.cgLens[s])
	}
	return size + 3*h.numCodeLens()
}

// numCodeLens is how many code-length code lengths the header sends: all
// up to the last nonzero one in cgOrder, and at least 4.
func (h *huffman) numCodeLens() int {
	n := numCodeLen
	for n > 4 && h.cgLens[cgOrder[n-1]] == 0 {
		n--
	}
	return n
}

// writeHeader builds the block's own codes from the lengths dynamicSize
// chose and writes a dynamic block's header, last its final bit: the
// lengths, coded.
func (h *huffman) writeHeader(d *encoder, last uint64) {
	canonical(h.lens[:h.litLens], h.lit[:h.litLens])
	canonical(h.lens[h.litLens:h.litLens+h.distLens], h.dist[:h.distLens])
	canonical(h.cgLens[:], h.cg[:])
	n := h.numCodeLens()
	d.put(0b100|last, 3) // dynamic codes
	d.put(uint64(h.litLens-257)|uint64(h.distLens-1)<<5|uint64(n-4)<<10, 14)
	for _, s := range cgOrder[:n] {
		d.put(uint64(h.cgLens[s]), 3)
	}
	for _, e := range h.seq {
		c := h.cg[e&0xff]
		d.put(uint64(c.bits)|uint64(e>>8)<<c.n, uint(c.n)+uint(cgExtra[e&0xff]))
	}
}

// lengths sets lens to the code lengths of a Huffman code, none longer
// than limit, for the symbols of syms, each its count above bit 9 and the
// symbol below; lens is zero elsewhere. It builds an unlimited code
// (Moffat and Katajainen's in-place method), moves the lengths over limit
// to it and then lengthens short codes until the lengths are a prefix
// code again, as miniz does; the most frequent symbols get the shortest
// codes.
func (h *huffman) lengths(syms []uint32, lens []uint8, limit int) {
	if len(syms) <= 2 {
		for _, k := range syms {
			lens[k&0x1ff] = 1
		}
		return
	}
	slices.Sort(syms)
	n := len(syms)
	a := h.weights[:n]
	for i, k := range syms {
		a[i] = k >> 9
	}
	// Phase 1: a[next] becomes the weight of internal node next, and a
	// consumed internal node's entry the index of its parent.
	root, leaf := 0, 0
	for next := 0; next < n-1; next++ {
		for child := 0; child < 2; child++ {
			var w uint32
			if leaf >= n || root < next && a[root] < a[leaf] {
				w, a[root] = a[root], uint32(next)
				root++
			} else {
				w = a[leaf]
				leaf++
			}
			if child == 0 {
				a[next] = w
			} else {
				a[next] += w
			}
		}
	}
	// Phase 2: each internal node's depth.
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	// Phase 3: the count of leaves at each depth, limited.
	var count [16]int
	avail, used := 1, 0
	for root, depth := n-2, 0; avail > 0; depth++ {
		for root >= 0 && int(a[root]) == depth {
			used++
			root--
		}
		count[min(depth, limit)] += avail - used
		avail, used = 2*used, 0
	}
	total := 0
	for l := 1; l <= limit; l++ {
		total += count[l] << (limit - l)
	}
	for ; total != 1<<limit; total-- {
		count[limit]--
		for l := limit - 1; l > 0; l-- {
			if count[l] > 0 {
				count[l]--
				count[l+1] += 2
				break
			}
		}
	}
	j := n
	for l := 1; l <= limit; l++ {
		for ; count[l] > 0; count[l]-- {
			j--
			lens[syms[j]&0x1ff] = uint8(l)
		}
	}
}

// writeStored writes p as stored blocks, the last of them final when last
// is 1.
func (d *encoder) writeStored(p []byte, last uint64) {
	for {
		n := min(len(p), maxStored)
		if n < len(p) {
			d.put(0, 3)
		} else {
			d.put(last, 3)
		}
		d.align()
		d.out = append(d.out, byte(n), byte(n>>8), ^byte(n), ^byte(n>>8))
		if d.out, p = append(d.out, p[:n]...), p[n:]; len(p) == 0 {
			return
		}
	}
}

// align pads the bits written to a whole byte and appends them.
func (d *encoder) align() {
	for d.nbits > 0 {
		d.out = append(d.out, byte(d.bits))
		d.bits >>= 8
		d.nbits -= min(d.nbits, 8)
	}
}

// put appends the n low bits of b, least significant first; n <= 32.
func (d *encoder) put(b uint64, n uint) {
	d.bits |= b << d.nbits
	d.nbits += n
	if d.nbits >= 32 {
		d.out = binary.LittleEndian.AppendUint32(d.out, uint32(d.bits))
		d.bits >>= 32
		d.nbits -= 32
	}
}
