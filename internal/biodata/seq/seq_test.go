package seq

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"graphitti/internal/interval"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("a", DNA, "acgtn"); err != nil {
		t.Fatalf("lower-case DNA rejected: %v", err)
	}
	if _, err := New("a", DNA, "ACGU"); !errors.Is(err, ErrAlphabet) {
		t.Fatalf("U in DNA: err = %v", err)
	}
	if _, err := New("a", RNA, "ACGU"); err != nil {
		t.Fatalf("RNA rejected: %v", err)
	}
	if _, err := New("a", RNA, "ACGT"); !errors.Is(err, ErrAlphabet) {
		t.Fatalf("T in RNA: err = %v", err)
	}
	if _, err := New("p", Protein, "MKVLAW*"); err != nil {
		t.Fatalf("protein rejected: %v", err)
	}
	if _, err := New("p", Protein, "MKB"); !errors.Is(err, ErrAlphabet) {
		t.Fatalf("B in protein: err = %v", err)
	}
	if _, err := New("e", DNA, ""); err != nil {
		t.Fatalf("empty sequence should be allowed: %v", err)
	}
}

func TestSubsequenceAndSpan(t *testing.T) {
	s, _ := New("x", DNA, "ACGTACGT")
	s.Domain = "chr1"
	s.Offset = 100

	if got := s.Span(); got != (interval.Interval{Lo: 100, Hi: 108}) {
		t.Fatalf("Span = %v", got)
	}
}

func TestDomainMapping(t *testing.T) {
	s, _ := New("x", DNA, "ACGTACGT")
	s.Domain = "chr1"
	s.Offset = 1000

	dom, err := s.ToDomain(interval.Interval{Lo: 2, Hi: 5})
	if err != nil || dom != (interval.Interval{Lo: 1002, Hi: 1005}) {
		t.Fatalf("ToDomain = %v, %v", dom, err)
	}
	if _, err := s.ToDomain(interval.Interval{Lo: -1, Hi: 2}); !errors.Is(err, ErrRange) {
		t.Fatalf("negative: err = %v", err)
	}
}

func TestGC(t *testing.T) {
	s, _ := New("x", DNA, "GGCC")
	gc, err := s.GC()
	if err != nil || gc != 1.0 {
		t.Fatalf("GC = %v, %v", gc, err)
	}
	s2, _ := New("y", DNA, "ATGC")
	gc, _ = s2.GC()
	if gc != 0.5 {
		t.Fatalf("GC = %v", gc)
	}
	p, _ := New("p", Protein, "MKV")
	if _, err := p.GC(); !errors.Is(err, ErrKind) {
		t.Fatalf("GC of protein: err = %v", err)
	}
	empty, _ := New("e", DNA, "")
	if gc, err := empty.GC(); err != nil || gc != 0 {
		t.Fatalf("GC of empty = %v, %v", gc, err)
	}
}

func TestReverseComplement(t *testing.T) {
	s, _ := New("x", DNA, "AACGT")
	rc, err := s.ReverseComplement()
	if err != nil || rc.Residues != "ACGTT" {
		t.Fatalf("RC = %v, %v", rc, err)
	}
	// Involution.
	rc2, _ := rc.ReverseComplement()
	if rc2.Residues != s.Residues {
		t.Fatal("double reverse complement must be identity")
	}
	r, _ := New("r", RNA, "AACGU")
	rrc, err := r.ReverseComplement()
	if err != nil || rrc.Residues != "ACGUU" {
		t.Fatalf("RNA RC = %v, %v", rrc, err)
	}
	p, _ := New("p", Protein, "MKV")
	if _, err := p.ReverseComplement(); !errors.Is(err, ErrKind) {
		t.Fatalf("protein RC: err = %v", err)
	}
}

func TestTranscribe(t *testing.T) {
	s, _ := New("x", DNA, "ATGCTT")
	r, err := s.Transcribe()
	if err != nil || r.Residues != "AUGCUU" || r.Kind != RNA {
		t.Fatalf("Transcribe = %v, %v", r, err)
	}
	if _, err := r.Transcribe(); !errors.Is(err, ErrKind) {
		t.Fatalf("transcribe RNA: err = %v", err)
	}
}

const fastaSample = `>NC_007362 Influenza A segment 1
ACGTACGTAC
GTACGT
>NC_007363 Influenza A segment 2
TTTTGGGG
`

func TestParseFASTA(t *testing.T) {
	seqs, err := ParseFASTA(strings.NewReader(fastaSample), DNA)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("parsed %d sequences", len(seqs))
	}
	if seqs[0].ID != "NC_007362" || seqs[0].Description != "Influenza A segment 1" {
		t.Fatalf("header = %q / %q", seqs[0].ID, seqs[0].Description)
	}
	if seqs[0].Residues != "ACGTACGTACGTACGT" {
		t.Fatalf("residues = %q (continuation lines must concatenate)", seqs[0].Residues)
	}
	if seqs[1].Len() != 8 {
		t.Fatalf("second len = %d", seqs[1].Len())
	}
}

func TestParseFASTAErrors(t *testing.T) {
	cases := []string{
		"",
		"ACGT\n",
		">\nACGT\n",
		">ok\nACGU\n", // U in DNA
	}
	for i, src := range cases {
		if _, err := ParseFASTA(strings.NewReader(src), DNA); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
}

func TestFASTARoundTrip(t *testing.T) {
	seqs, err := ParseFASTA(strings.NewReader(fastaSample), DNA)
	if err != nil {
		t.Fatal(err)
	}
	// Add one long sequence to exercise wrapping.
	long, _ := New("LONG", DNA, strings.Repeat("ACGT", 100))
	long.Description = "400 residues"
	seqs = append(seqs, long)

	var sb strings.Builder
	if err := WriteFASTA(&sb, seqs...); err != nil {
		t.Fatal(err)
	}
	back, err := ParseFASTA(strings.NewReader(sb.String()), DNA)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(seqs) {
		t.Fatalf("round trip count = %d", len(back))
	}
	for i := range seqs {
		if back[i].ID != seqs[i].ID || back[i].Residues != seqs[i].Residues ||
			back[i].Description != seqs[i].Description {
			t.Fatalf("sequence %d changed in round trip", i)
		}
	}
	// Wrapped lines must not exceed 70 chars.
	for _, line := range strings.Split(sb.String(), "\n") {
		if len(line) > 71 {
			t.Fatalf("line too long: %d chars", len(line))
		}
	}
}

// TestQuickReverseComplementInvolution over random DNA.
func TestQuickReverseComplementInvolution(t *testing.T) {
	letters := "ACGTN"
	check := func(raw []byte) bool {
		var sb strings.Builder
		for _, b := range raw {
			sb.WriteByte(letters[int(b)%len(letters)])
		}
		s, err := New("q", DNA, sb.String())
		if err != nil {
			return false
		}
		rc, err := s.ReverseComplement()
		if err != nil {
			return false
		}
		rc2, err := rc.ReverseComplement()
		if err != nil {
			return false
		}
		return rc2.Residues == s.Residues && len(rc.Residues) == len(s.Residues)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// ErrKind reports an operation not defined for a sequence kind.
var ErrKind = errors.New("seq: operation not defined for this kind")

// GC returns the G+C fraction of a DNA/RNA sequence.
func (s *Sequence) GC() (float64, error) {
	if s.Kind == Protein {
		return 0, fmt.Errorf("%w: GC of protein %s", ErrKind, s.ID)
	}
	if s.Len() == 0 {
		return 0, nil
	}
	n := 0
	for i := 0; i < len(s.Residues); i++ {
		if s.Residues[i] == 'G' || s.Residues[i] == 'C' {
			n++
		}
	}
	return float64(n) / float64(s.Len()), nil
}

var dnaComplement = map[byte]byte{'A': 'T', 'T': 'A', 'C': 'G', 'G': 'C', 'N': 'N'}
var rnaComplement = map[byte]byte{'A': 'U', 'U': 'A', 'C': 'G', 'G': 'C', 'N': 'N'}

// ReverseComplement returns the reverse complement of a DNA or RNA
// sequence.
func (s *Sequence) ReverseComplement() (*Sequence, error) {
	var table map[byte]byte
	switch s.Kind {
	case DNA:
		table = dnaComplement
	case RNA:
		table = rnaComplement
	default:
		return nil, fmt.Errorf("%w: reverse complement of protein %s", ErrKind, s.ID)
	}
	out := make([]byte, len(s.Residues))
	for i := 0; i < len(s.Residues); i++ {
		out[len(out)-1-i] = table[s.Residues[i]]
	}
	rc := *s
	rc.ID = s.ID + ".rc"
	rc.Residues = string(out)
	return &rc, nil
}

// Transcribe converts a DNA sequence to RNA (T -> U).
func (s *Sequence) Transcribe() (*Sequence, error) {
	if s.Kind != DNA {
		return nil, fmt.Errorf("%w: transcribe %s", ErrKind, s.Kind)
	}
	out := *s
	out.ID = s.ID + ".rna"
	out.Kind = RNA
	out.Residues = strings.ReplaceAll(s.Residues, "T", "U")
	return &out, nil
}

// WriteFASTA writes sequences in FASTA format with 70-column wrapping.
func WriteFASTA(w io.Writer, seqs ...*Sequence) error {
	bw := bufio.NewWriter(w)
	for _, s := range seqs {
		if s.Description != "" {
			fmt.Fprintf(bw, ">%s %s\n", s.ID, s.Description)
		} else {
			fmt.Fprintf(bw, ">%s\n", s.ID)
		}
		for i := 0; i < len(s.Residues); i += 70 {
			end := i + 70
			if end > len(s.Residues) {
				end = len(s.Residues)
			}
			bw.WriteString(s.Residues[i:end])
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}
