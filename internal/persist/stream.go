package persist

import (
	"bufio"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strings"

	"graphitti/internal/core"
	"graphitti/internal/prop"
)

// Source is a snapshot as a stream of ops: the loader's one input
// (LoadWith), whichever form the snapshot came in. ReadOps reads one from
// a file or an upload in either form; a *Snapshot built in memory is one
// too.
type Source interface {
	// Each calls apply with every op of the snapshot in load order —
	// ontologies, systems, sequences, alignments, trees, graphs, images,
	// record tables (rows included), annotations — and then returns the
	// tail. The first error, the source's or apply's, ends the walk and
	// is returned as it is. A source may find its input damaged only at
	// the end (a checkpoint's checksum), so nothing Each fed may be kept
	// unless it returns nil.
	Each(apply func(Op) error) (Tail, error)
}

// Tail is what a snapshot holds besides its ops: the format version, and
// what a load installs after the ops — the propagation rules, as one
// swap, and the ID counters.
type Tail struct {
	Version          int
	Rules            []RuleDump
	NextAnn, NextRef uint64
}

// install is the end of a load: the rules as one swap — the derived table
// is rebuilt once over the full store, instead of every replayed commit
// paying the delta path or every rule its own recompute — then the ID
// counters.
func (t Tail) install(x *core.Tx) error {
	if len(t.Rules) > 0 {
		rules := make([]prop.Rule, len(t.Rules))
		for i, rd := range t.Rules {
			rules[i] = RestoreRule(rd)
		}
		if err := prop.AddRules(x, rules...); err != nil {
			return fmt.Errorf("persist: rules: %w", err)
		}
	}
	if t.NextAnn != 0 || t.NextRef != 0 {
		return x.RestoreIDCounters(t.NextAnn, t.NextRef)
	}
	return nil
}

func checkVersion(v int) error {
	if v < 1 || v > Version {
		return fmt.Errorf("persist: snapshot version %d, want 1..%d", v, Version)
	}
	return nil
}

// ReadOps reads a snapshot from r as a Source. It takes either form, told
// apart by the leading bytes: the JSON export, or a binary checkpoint
// copied out of a data directory (WriteCheckpoint). Each decodes the ops
// as their bytes arrive and hands each to apply before it reads the next,
// so no more of the snapshot is held than one entry and the buffers in
// front of it. A checkpoint body may inflate to at most limit bytes when
// limit is positive: past it the walk fails with ErrInflateLimit. The
// caller bounds what r itself holds. r is read once: Each may be called
// once.
func ReadOps(r io.Reader, limit int64) Source {
	return &stream{r: r, limit: limit}
}

type stream struct {
	r     io.Reader
	limit int64
}

func (st *stream) Each(apply func(Op) error) (Tail, error) {
	br := bufio.NewReader(st.r)
	if head, _ := br.Peek(len(checkpointMagic)); string(head) == checkpointMagic {
		return eachCheckpoint(br, st.limit, apply)
	}
	dec := json.NewDecoder(br)
	dec.UseNumber() // a skipped number is not parsed, as a struct decode skips it
	return eachJSON(dec, apply)
}

// eachCheckpoint walks a binary checkpoint section by section and entry
// by entry, straight from r or from the inflater over it. The checksum is
// summed over the bytes on disk as they pass and checked once the body
// has ended, after the last op and before Each returns.
func eachCheckpoint(r io.Reader, limit int64, apply func(Op) error) (Tail, error) {
	disk := &trailed{r: r, buf: make([]byte, 0, streamChunk)}
	head := make([]byte, len(checkpointMagic)+1)
	if _, err := io.ReadFull(disk, head); err != nil {
		return Tail{}, fmt.Errorf("persist: checkpoint is truncated: %w", err)
	}
	var body io.Reader = disk
	switch f := head[len(checkpointMagic)]; f {
	case checkpointPlain:
	case checkpointDeflate:
		body = &inflated{z: flate.NewReader(disk), left: limit, limit: limit}
	default:
		return Tail{}, fmt.Errorf("persist: checkpoint format %d, want %d or %d", f, checkpointPlain, checkpointDeflate)
	}
	tail, err := streaming(body).checkpoint(apply)
	if err != nil {
		return Tail{}, err
	}
	return tail, disk.end()
}

// checkpoint reads a checkpoint's body: the version, each section's
// entries as ops handed to apply one at a time, and the tail.
func (d *decoder) checkpoint(apply func(Op) error) (Tail, error) {
	t := Tail{Version: d.int()}
	if d.err == nil {
		if err := checkVersion(t.Version); err != nil {
			return t, err
		}
	}
	for _, kind := range loadOrder {
		for n := d.count(); n > 0 && d.err == nil; n-- {
			op := d.op(kind)
			if d.err != nil {
				break
			}
			if err := apply(op); err != nil {
				return t, err
			}
		}
	}
	t.Rules = readSlice(d, (*decoder).rule)
	t.NextAnn, t.NextRef = d.uvarint(), d.uvarint()
	return t, d.end("checkpoint")
}

// loadOrder is the op kind of each section a snapshot applies, in the
// order a checkpoint holds them and a load applies them.
var loadOrder = [...]core.OpKind{core.OpRegisterOntology, core.OpRegisterSystem, core.OpRegisterSequence,
	core.OpRegisterAlignment, core.OpRegisterTree, core.OpRegisterInteractionGraph, core.OpRegisterImage,
	core.OpCreateRecordTable, core.OpCommitAnnotation}

// trailerLen is the size of a checkpoint's checksum trailer.
const trailerLen = 4

// trailed reads a checkpoint's bytes on disk. It holds back the last
// four, the checksum trailer, so what it hands out ends where the body
// does, and sums what it hands out. It reads through ReadByte as well, so
// an inflater over it reads no byte past the deflate stream.
type trailed struct {
	r   io.Reader
	buf []byte // buf[off:] is read from r and not handed out yet
	off int
	sum uint32 // the CRC32C of what was handed out before buf
	err error  // r's, once it has ended (io.EOF) or failed
}

// A trailed is a flate.Reader: an inflater over it reads by ReadByte,
// and so no further than its stream.
var _ flate.Reader = (*trailed)(nil)

// more reads until a byte past the held-back trailer is in hand, or r
// ends, and reports whether one is.
func (t *trailed) more() bool {
	for len(t.buf)-t.off <= trailerLen && t.err == nil {
		t.sum = crc32.Update(t.sum, castagnoli, t.buf[:t.off])
		n := copy(t.buf, t.buf[t.off:])
		t.buf, t.off = t.buf[:n], 0
		m, err := t.r.Read(t.buf[n:cap(t.buf)])
		t.buf, t.err = t.buf[:n+m], err
	}
	return len(t.buf)-t.off > trailerLen
}

func (t *trailed) ReadByte() (byte, error) {
	if !t.more() {
		return 0, t.err
	}
	t.off++
	return t.buf[t.off-1], nil
}

func (t *trailed) Read(p []byte) (int, error) {
	if !t.more() {
		return 0, t.err
	}
	n := copy(p, t.buf[t.off:len(t.buf)-trailerLen])
	t.off += n
	return n, nil
}

// end checks the trailer once the body has been read: the checksum of
// every byte before it, and no byte between the end of the body (of the
// deflate stream, in format 2) and it.
func (t *trailed) end() error {
	var after int64
	for t.more() {
		after += int64(len(t.buf) - trailerLen - t.off)
		t.off = len(t.buf) - trailerLen
	}
	if t.err != io.EOF {
		return t.err
	}
	if len(t.buf)-t.off < trailerLen {
		return errors.New("persist: checkpoint is truncated")
	}
	sum := crc32.Update(t.sum, castagnoli, t.buf[:t.off])
	if want := binary.LittleEndian.Uint32(t.buf[t.off:]); sum != want {
		return fmt.Errorf("persist: checkpoint checksum %08x, want %08x: the file is truncated or corrupt", sum, want)
	}
	if after > 0 {
		return fmt.Errorf("persist: checkpoint has %d bytes after its deflate stream", after)
	}
	return nil
}

// inflated reads a format-2 checkpoint's body out of its DEFLATE stream,
// saying what went wrong in the checkpoint's terms, and refuses to hand
// out more than limit bytes when limit is positive.
type inflated struct {
	z     io.Reader
	left  int64 // what it may still hand out, under a limit
	limit int64
}

func (f *inflated) Read(p []byte) (int, error) {
	if f.limit > 0 && int64(len(p)) > f.left {
		p = p[:f.left+1] // one byte past the limit, to see whether the body goes on
	}
	n, err := f.z.Read(p)
	if f.limit > 0 {
		if int64(n) > f.left {
			return 0, fmt.Errorf("%w of %d bytes", ErrInflateLimit, f.limit)
		}
		f.left -= int64(n)
	}
	switch {
	case err == nil || err == io.EOF:
		return n, err
	case errors.Is(err, io.ErrUnexpectedEOF):
		return n, errors.New("persist: checkpoint's deflate stream ends early")
	}
	return n, fmt.Errorf("persist: checkpoint does not inflate: %w", err)
}

// jsonKeys are the JSON form's top-level keys, the Snapshot's fields in
// the order Write writes them: the version and the object sections, then
// the annotations, then the tail.
var jsonKeys = [...]string{"version", "ontologies", "systems", "sequences", "alignments", "trees",
	"graphs", "images", "recordTables", "annotations", "rules", "nextAnn", "nextRef"}

// keyAnnotations is the annotations' position in jsonKeys: the keys
// before it are what a load applies ahead of them.
var keyAnnotations = slices.Index(jsonKeys[:], "annotations")

// field is where the value of jsonKeys[i] decodes to (not the
// annotations, which are read one at a time).
func (snap *Snapshot) field(i int) any {
	return [...]any{&snap.Version, &snap.Ontologies, &snap.Systems, &snap.Sequences, &snap.Alignments,
		&snap.Trees, &snap.Graphs, &snap.Images, &snap.RecordTables, nil, &snap.Rules,
		&snap.NextAnn, &snap.NextRef}[i]
}

// eachJSON walks the JSON form token by token. The version and the object
// sections are held as they are decoded — they are few and small, and
// they register what the annotations mark — and applied, in load order,
// when the annotations key arrives (or, without one, at the end); the
// annotations are then decoded and applied one at a time. The rules and
// the ID counters may come anywhere: they are the tail. Keys match as
// encoding/json matches a struct's fields, case-insensitively, and
// unknown ones are skipped. Two inputs a decode of the whole document
// would take are refused, because a stream cannot take back what it has
// applied: a version or an object section after the annotations, and a
// key that comes twice (there, the later copy replaced the earlier).
func eachJSON(dec *json.Decoder, apply func(Op) error) (Tail, error) {
	var held Snapshot
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return Tail{}, decodeError(err, "the snapshot is not a JSON object")
	}
	var seen [len(jsonKeys)]bool
	applied := false // the held version and sections
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return Tail{}, decodeError(err, "")
		}
		key, _ := tok.(string)
		i := slices.IndexFunc(jsonKeys[:], func(k string) bool { return strings.EqualFold(k, key) })
		switch {
		case i < 0:
			err = skipValue(dec)
		case seen[i]:
			return Tail{}, fmt.Errorf("persist: decode: key %q comes twice", key)
		case i < keyAnnotations && applied:
			return Tail{}, fmt.Errorf("persist: decode: key %q comes after the annotations", key)
		case i == keyAnnotations:
			if err := held.applyObjects(apply); err != nil {
				return Tail{}, err
			}
			applied = true
			if err := eachAnnotation(dec, apply); err != nil {
				return Tail{}, err
			}
		default:
			err = dec.Decode(held.field(i))
		}
		if err != nil {
			return Tail{}, decodeError(err, "")
		}
		if i >= 0 {
			seen[i] = true
		}
	}
	if _, err := dec.Token(); err != nil {
		return Tail{}, decodeError(err, "")
	}
	if !applied {
		if err := held.applyObjects(apply); err != nil {
			return Tail{}, err
		}
	}
	if _, err := dec.Token(); err != io.EOF {
		return Tail{}, decodeError(err, "data after the snapshot")
	}
	return held.tail(), nil
}

// decodeError is the error of a JSON walk that failed on err, or, on a
// syntax error or none, says why.
func decodeError(err error, why string) error {
	var syntax *json.SyntaxError
	if err != nil && (why == "" || !errors.As(err, &syntax)) {
		return fmt.Errorf("persist: decode: %w", err) // a read error, an upload cap
	}
	return errors.New("persist: decode: " + why)
}

// eachAnnotation decodes the annotations value, an array or null, and
// applies each annotation as it is decoded.
func eachAnnotation(dec *json.Decoder, apply func(Op) error) error {
	tok, err := dec.Token()
	switch {
	case err != nil:
		return decodeError(err, "")
	case tok == nil:
		return nil
	case tok != json.Delim('['):
		return fmt.Errorf("persist: decode: the annotations are %v, not an array", tok)
	}
	for dec.More() {
		ad := new(AnnotationDump)
		if err := dec.Decode(ad); err != nil {
			return decodeError(err, "")
		}
		if err := apply(Op{Kind: core.OpCommitAnnotation, Annotation: ad}); err != nil {
			return err
		}
	}
	if _, err := dec.Token(); err != nil {
		return decodeError(err, "")
	}
	return nil
}

// maxJSONDepth is the nesting encoding/json's scanner allows a document.
const maxJSONDepth = 10000

// skipValue reads past the value of an unknown key token by token,
// holding none of it, and refuses one nested deeper than a decode of the
// whole document would take (the snapshot object is one level).
func skipValue(dec *json.Decoder) error {
	for depth := 0; ; {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			if depth++; depth+1 > maxJSONDepth {
				return errors.New("exceeded max depth")
			}
		case json.Delim('}'), json.Delim(']'):
			depth--
		}
		if depth == 0 {
			return nil
		}
	}
}
