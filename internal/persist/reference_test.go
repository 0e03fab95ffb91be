package persist

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// DecodeWhole is the decode every load took before loads streamed, kept
// as the reference FuzzSnapshotLoad holds ReadOps to: the whole input in
// hand, then either the JSON document decoded into a Snapshot, or a
// checkpoint's checksum checked, its body inflated and its sections
// decoded into one. A load of the result (Load, the Snapshot's ops) is
// the reference store.
func DecodeWhole(data []byte) (*Snapshot, error) {
	if bytes.HasPrefix(data, []byte(checkpointMagic)) {
		return decodeWholeCheckpoint(data)
	}
	var snap Snapshot
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("persist: decode: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("persist: decode: data after the snapshot")
	}
	return &snap, nil
}

func decodeWholeCheckpoint(data []byte) (*Snapshot, error) {
	head := len(checkpointMagic) + 1
	if len(data) < head+4 {
		return nil, fmt.Errorf("persist: checkpoint of %d bytes is truncated", len(data))
	}
	body := data[:len(data)-4]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(data[len(body):]); got != want {
		return nil, fmt.Errorf("persist: checkpoint checksum %08x, want %08x", got, want)
	}
	switch v := body[head-1]; v {
	case checkpointPlain:
		body = body[head:]
	case checkpointDeflate:
		r := bytes.NewReader(body[head:])
		var err error
		if body, err = io.ReadAll(flate.NewReader(r)); err != nil {
			return nil, fmt.Errorf("persist: checkpoint does not inflate: %w", err)
		}
		if r.Len() > 0 {
			return nil, fmt.Errorf("persist: checkpoint has %d bytes after its deflate stream", r.Len())
		}
	default:
		return nil, fmt.Errorf("persist: checkpoint format %d", v)
	}
	d := decoder{b: body}
	snap := &Snapshot{Version: d.int()}
	snap.Ontologies = readSlice(&d, (*decoder).ontology)
	snap.Systems = readSlice(&d, (*decoder).system)
	snap.Sequences = readSlice(&d, (*decoder).sequence)
	snap.Alignments = readSlice(&d, (*decoder).alignment)
	snap.Trees = readSlice(&d, (*decoder).tree)
	snap.Graphs = readSlice(&d, (*decoder).graph)
	snap.Images = readSlice(&d, (*decoder).image)
	snap.RecordTables = readSlice(&d, (*decoder).table)
	snap.Annotations = readSlice(&d, (*decoder).annotation)
	snap.Rules = readSlice(&d, (*decoder).rule)
	snap.NextAnn, snap.NextRef = d.uvarint(), d.uvarint()
	if err := d.end("checkpoint"); err != nil {
		return nil, err
	}
	return snap, nil
}
