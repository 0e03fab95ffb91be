package durable

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"graphitti/internal/deflate"
	"graphitti/internal/persist"
)

// record is the WAL payload: one op, tagged with its sequence number. Its
// JSON form is the legacy record, the embedded op flattened into the same
// object.
type record struct {
	Seq uint64 `json:"seq"`
	persist.Op
}

// The first byte of a WAL payload names its form; a JSON record starts
// with '{'.
const (
	// recordBinary is [0x01][uvarint seq][persist.AppendOp(op)].
	recordBinary = 0x01
	// recordCompressed is [0x02][uvarint decoded length][raw DEFLATE
	// chunk]: a binary record deflated against the log's earlier
	// payloads, the only form the live path writes.
	recordCompressed = 0x02
)

// windowSize is how far back a compressed record may refer: DEFLATE's
// window, over the decoded payloads before it.
const windowSize = deflate.WindowSize

// keepOut is the largest record buffer a deflater keeps between records;
// a larger record's is dropped after it.
const keepOut = 16 << 10

// deflater compresses one log's binary records into compressed ones: the
// header, then the record's chunk from the log's encoder
// (deflate.Records).
type deflater struct {
	enc *deflate.Records
	out []byte
}

// newDeflater returns the compressor of a log whose decoded payloads so
// far end with dict (empty for a fresh log).
func newDeflater(dict []byte) *deflater {
	return &deflater{enc: deflate.NewRecords(dict)}
}

// fresh readies d for a new, empty log.
func (d *deflater) fresh() *deflater {
	d.enc.Reset()
	return d
}

// frame returns the compressed record of raw, a binary one. The slice is
// valid until the next call; the WAL copies it on append.
func (d *deflater) frame(raw []byte) []byte {
	if cap(d.out) > keepOut {
		d.out = nil
	}
	d.out = binary.AppendUvarint(append(d.out[:0], recordCompressed), uint64(len(raw)))
	d.out = d.enc.Append(d.out, raw)
	return d.out
}

// syncTail ends every sync flush: the LEN and NLEN of the empty stored
// block it writes. A record leaves it off and the reader puts it back, as
// RFC 7692 does.
var syncTail = []byte{0, 0, 0xff, 0xff}

// encodeRecord is the binary WAL payload of op at sequence seq.
func encodeRecord(seq uint64, op persist.Op) []byte {
	return persist.AppendOp(binary.AppendUvarint(append(make([]byte, 0, 256), recordBinary), seq), op)
}

// decodeRecord reads a JSON or binary WAL payload; a compressed one is
// inflated first (inflater.decode).
func decodeRecord(payload []byte) (record, error) {
	var rec record
	switch {
	case len(payload) == 0:
		return rec, errors.New("empty record")
	case payload[0] == '{':
		err := json.Unmarshal(payload, &rec)
		return rec, err
	case payload[0] != recordBinary:
		return rec, fmt.Errorf("unknown record format byte 0x%02x", payload[0])
	}
	seq, n := binary.Uvarint(payload[1:])
	if n <= 0 {
		return rec, errors.New("bad sequence number")
	}
	op, err := persist.DecodeOp(payload[1+n:])
	return record{Seq: seq, Op: op}, err
}

// inflater decodes one log's payloads in order. It keeps the window a
// compressed record refers back into: the last 32 KiB of the decoded
// payloads before it, skipped records included, whatever their form.
type inflater struct {
	fr     io.ReadCloser
	src    bytes.Reader
	chunk  []byte
	out    bytes.Buffer
	window deflate.Window
}

// decode returns payload's decoded form — a compressed record inflated,
// any other as it is — and adds it to the window. The slice is valid
// until the next call.
func (in *inflater) decode(payload []byte) ([]byte, error) {
	if len(payload) == 0 || payload[0] != recordCompressed {
		in.window.Push(payload)
		return payload, nil
	}
	n, k := binary.Uvarint(payload[1:])
	if k <= 0 || n == 0 || n > maxRecordSize {
		return nil, errors.New("compressed record: bad decoded length")
	}
	in.chunk = append(append(in.chunk[:0], payload[1+k:]...), syncTail...)
	in.src.Reset(in.chunk)
	if in.fr == nil {
		in.fr = flate.NewReaderDict(&in.src, in.dict())
	} else if err := in.fr.(flate.Resetter).Reset(&in.src, in.dict()); err != nil {
		return nil, err
	}
	// Inflate through a limit one byte past the declared length, so a
	// record that inflates further is refused without inflating it all.
	// A record is no whole DEFLATE stream: it ends after its sync flush,
	// where the reader reports an unexpected EOF.
	in.out.Reset()
	_, err := in.out.ReadFrom(io.LimitReader(in.fr, int64(n)+1))
	if errors.Is(err, io.ErrUnexpectedEOF) {
		err = nil
	}
	out := in.out.Bytes()
	switch {
	case err != nil:
		return nil, fmt.Errorf("compressed record: %w", err)
	case uint64(len(out)) != n:
		return nil, fmt.Errorf("compressed record does not inflate to its declared %d bytes", n)
	case out[0] != recordBinary:
		return nil, fmt.Errorf("compressed record holds format byte 0x%02x", out[0])
	}
	in.window.Push(out)
	return out, nil
}

// dict returns the window: the last 32 KiB of the decoded payloads so
// far.
func (in *inflater) dict() []byte { return in.window.Dict() }
