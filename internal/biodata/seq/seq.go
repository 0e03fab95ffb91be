// Package seq models the 1-D sequence data types annotated in Graphitti's
// demo studies: DNA, RNA and protein sequences.
//
// The paper's Avian-Influenza study registers "DNA sequences, RNA
// sequences" (among others) and stores their metadata in type-specific
// relations; annotated sub-intervals live in per-chromosome interval trees
// ("a single interval tree is created per chromosome instead of per
// annotated DNA sequence"). Sequences here therefore carry the coordinate
// domain (chromosome/segment) they are addressed in, plus their offset
// within it, so marks can be normalised into the shared domain.
package seq

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"graphitti/internal/interval"
)

// Kind is the molecular alphabet of a sequence.
type Kind uint8

// Sequence kinds.
const (
	DNA Kind = iota
	RNA
	Protein
)

func (k Kind) String() string {
	switch k {
	case DNA:
		return "dna"
	case RNA:
		return "rna"
	case Protein:
		return "protein"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Errors reported by sequence operations.
var (
	ErrAlphabet = errors.New("seq: residue outside alphabet")
	ErrRange    = errors.New("seq: interval outside sequence")
	ErrFormat   = errors.New("seq: bad FASTA")
)

var alphabets = map[Kind]string{
	DNA:     "ACGTN",
	RNA:     "ACGUN",
	Protein: "ACDEFGHIKLMNPQRSTVWYX*",
}

// Sequence is a biological sequence registered with Graphitti.
type Sequence struct {
	// ID is the accession (e.g. "NC_007362").
	ID string
	// Description is the free-text FASTA description.
	Description string
	Kind        Kind
	// Residues holds the upper-case residue letters.
	Residues string
	// Domain names the shared coordinate domain (chromosome, genome
	// segment, or protein family axis) this sequence is addressed in.
	Domain string
	// Offset is the 0-based position of residue 0 within Domain.
	Offset int64
}

// New validates residues against the alphabet for kind and returns a
// sequence. Lower-case input is accepted and upper-cased.
func New(id string, kind Kind, residues string) (*Sequence, error) {
	up := strings.ToUpper(residues)
	alpha := alphabets[kind]
	for i := 0; i < len(up); i++ {
		if !strings.ContainsRune(alpha, rune(up[i])) {
			return nil, fmt.Errorf("%w: %q at %d in %s", ErrAlphabet, up[i], i, id)
		}
	}
	return &Sequence{ID: id, Kind: kind, Residues: up}, nil
}

// Len returns the number of residues.
func (s *Sequence) Len() int64 { return int64(len(s.Residues)) }

// Span returns the sequence's extent in its coordinate domain.
func (s *Sequence) Span() interval.Interval {
	return interval.Interval{Lo: s.Offset, Hi: s.Offset + s.Len()}
}

// ToDomain maps a local interval into the shared coordinate domain.
func (s *Sequence) ToDomain(iv interval.Interval) (interval.Interval, error) {
	if !iv.Valid() || iv.Lo < 0 || iv.Hi > s.Len() {
		return interval.Interval{}, fmt.Errorf("%w: %v in %s", ErrRange, iv, s.ID)
	}
	return interval.Interval{Lo: s.Offset + iv.Lo, Hi: s.Offset + iv.Hi}, nil
}

// ParseFASTA reads sequences of the given kind from FASTA text.
func ParseFASTA(r io.Reader, kind Kind) ([]*Sequence, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	var out []*Sequence
	var id, desc string
	var body strings.Builder
	flush := func() error {
		if id == "" {
			return nil
		}
		s, err := New(id, kind, body.String())
		if err != nil {
			return err
		}
		s.Description = desc
		out = append(out, s)
		body.Reset()
		return nil
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == '>' {
			if err := flush(); err != nil {
				return nil, err
			}
			header := strings.TrimSpace(line[1:])
			if header == "" {
				return nil, fmt.Errorf("%w: empty header at line %d", ErrFormat, lineNo)
			}
			parts := strings.SplitN(header, " ", 2)
			id = parts[0]
			desc = ""
			if len(parts) == 2 {
				desc = parts[1]
			}
			continue
		}
		if id == "" {
			return nil, fmt.Errorf("%w: sequence data before header at line %d", ErrFormat, lineNo)
		}
		body.WriteString(line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("seq: fasta read: %w", err)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: no sequences", ErrFormat)
	}
	return out, nil
}
