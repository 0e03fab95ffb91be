package msa

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

// aln is a 4x10 alignment used throughout:
//
//	s1: AC-GTACG-T   (8 residues)
//	s2: ACAGTACGAT   (10 residues)
//	s3: -C-GTAC--T   (6 residues)
//	s4: ACAGT-CGAT   (9 residues)
func aln(t *testing.T) *Alignment {
	t.Helper()
	a, err := New("test-aln",
		[]string{"s1", "s2", "s3", "s4"},
		[]string{
			"AC-GTACG-T",
			"ACAGTACGAT",
			"-C-GTAC--T",
			"ACAGT-CGAT",
		})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", nil, nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty: err = %v", err)
	}
	if _, err := New("x", []string{"a"}, []string{"AC", "GT"}); !errors.Is(err, ErrShape) {
		t.Fatalf("id/row mismatch: err = %v", err)
	}
	if _, err := New("x", []string{"a", "b"}, []string{"AC", "GTT"}); !errors.Is(err, ErrShape) {
		t.Fatalf("ragged: err = %v", err)
	}
	if _, err := New("x", []string{"a", "a"}, []string{"AC", "GT"}); err == nil {
		t.Fatal("duplicate row ids accepted")
	}
}

func TestShape(t *testing.T) {
	a := aln(t)
	if len(a.Rows) != 4 || a.NumCols() != 10 {
		t.Fatalf("shape = %dx%d", len(a.Rows), a.NumCols())
	}
	if a.RowIDs[2] != "s3" || a.Rows[2] != "-C-GTAC--T" {
		t.Fatalf("row 2 = %q %q", a.RowIDs[2], a.Rows[2])
	}
}

func TestColToResidue(t *testing.T) {
	a := aln(t)
	tests := []struct {
		row   string
		col   int
		res   int
		exact bool
	}{
		{"s1", 0, 0, true},
		{"s1", 1, 1, true},
		{"s1", 2, 2, false}, // gap
		{"s1", 3, 2, true},
		{"s1", 9, 7, true},
		{"s3", 0, 0, false}, // leading gap
		{"s3", 1, 0, true},
		{"s2", 9, 9, true},
	}
	for _, tc := range tests {
		res, exact, err := a.ColToResidue(tc.row, tc.col)
		if err != nil {
			t.Fatalf("ColToResidue(%s,%d): %v", tc.row, tc.col, err)
		}
		if res != tc.res || exact != tc.exact {
			t.Errorf("ColToResidue(%s,%d) = (%d,%v), want (%d,%v)",
				tc.row, tc.col, res, exact, tc.res, tc.exact)
		}
	}
	if _, _, err := a.ColToResidue("ghost", 0); !errors.Is(err, ErrNoRow) {
		t.Fatalf("ghost: err = %v", err)
	}
	if _, _, err := a.ColToResidue("s1", 10); !errors.Is(err, ErrRange) {
		t.Fatalf("col 10: err = %v", err)
	}
}

func TestResidueToCol(t *testing.T) {
	a := aln(t)
	tests := []struct {
		row string
		res int
		col int
	}{
		{"s1", 0, 0},
		{"s1", 2, 3}, // skips the gap at column 2
		{"s1", 7, 9},
		{"s3", 0, 1},
		{"s3", 5, 9},
	}
	for _, tc := range tests {
		col, err := a.ResidueToCol(tc.row, tc.res)
		if err != nil || col != tc.col {
			t.Errorf("ResidueToCol(%s,%d) = (%d,%v), want %d", tc.row, tc.res, col, err, tc.col)
		}
	}
	if _, err := a.ResidueToCol("s3", 6); !errors.Is(err, ErrRange) {
		t.Fatalf("beyond row: err = %v", err)
	}
}

func TestColumnsToResidueInterval(t *testing.T) {
	a := aln(t)
	// Columns [2,5) on s1: col2 gap, col3 residue 2, col4 residue 3.
	iv, ok, err := a.ColumnsToResidueInterval("s1", interval.Interval{Lo: 2, Hi: 5})
	if err != nil || !ok || iv != (interval.Interval{Lo: 2, Hi: 4}) {
		t.Fatalf("s1 [2,5) = (%v,%v,%v)", iv, ok, err)
	}
	// All-gap window on s3: columns [7,9) are both gaps.
	_, ok, err = a.ColumnsToResidueInterval("s3", interval.Interval{Lo: 7, Hi: 9})
	if err != nil || ok {
		t.Fatalf("all-gap window should report !ok, got (%v,%v)", ok, err)
	}
	if _, _, err = a.ColumnsToResidueInterval("s1", interval.Interval{Lo: 5, Hi: 20}); !errors.Is(err, ErrRange) {
		t.Fatalf("out of range: err = %v", err)
	}
}

func TestBlock(t *testing.T) {
	a := aln(t)
	b, err := a.Block([]string{"s1", "s2"}, interval.Interval{Lo: 3, Hi: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.RowIDs) != 2 || b.Cols.Hi-b.Cols.Lo != 5 {
		t.Fatalf("block = %+v", b)
	}
	if _, err := a.Block(nil, interval.Interval{Lo: 0, Hi: 1}); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("no rows: err = %v", err)
	}
	if _, err := a.Block([]string{"s1"}, interval.Interval{Lo: 0, Hi: 11}); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("bad cols: err = %v", err)
	}
	if _, err := a.Block([]string{"ghost"}, interval.Interval{Lo: 0, Hi: 1}); !errors.Is(err, ErrNoRow) {
		t.Fatalf("ghost row: err = %v", err)
	}
}

func TestConservation(t *testing.T) {
	a := aln(t)
	// Column 0: A,A,-,A -> 3/3 conserved. Column 5: A,A,A,- -> 3/3.
	cons, err := a.Conservation(interval.Interval{Lo: 0, Hi: 1})
	if err != nil || len(cons) != 1 || cons[0] != 1.0 {
		t.Fatalf("conservation col0 = %v, %v", cons, err)
	}
	// Column 2: -,A,-,A -> majority A of 2 residues -> 1.0.
	cons, _ = a.Conservation(interval.Interval{Lo: 2, Hi: 3})
	if cons[0] != 1.0 {
		t.Fatalf("conservation col2 = %v", cons)
	}
	if _, err := a.Conservation(interval.Interval{Lo: -1, Hi: 2}); !errors.Is(err, ErrRange) {
		t.Fatalf("bad range: err = %v", err)
	}
}

func TestParseFASTA(t *testing.T) {
	src := ">s1 first\nAC-GT\nACG--\n>s2\nACAGT\nACGTT\n"
	a, err := ParseFASTA(strings.NewReader(src), "aln1")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 2 || a.NumCols() != 10 {
		t.Fatalf("shape = %dx%d", len(a.Rows), a.NumCols())
	}
	if a.RowIDs[0] != "s1" || a.Rows[0] != "AC-GTACG--" {
		t.Fatalf("row 0 = %q %q", a.RowIDs[0], a.Rows[0])
	}
	// Ragged alignments fail.
	if _, err := ParseFASTA(strings.NewReader(">a\nACGT\n>b\nAC\n"), "x"); !errors.Is(err, ErrShape) {
		t.Fatalf("ragged: err = %v", err)
	}
	if _, err := ParseFASTA(strings.NewReader(""), "x"); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty: err = %v", err)
	}
	// Regression (found by the parser fuzz test): a bare ">" header and
	// data before any header must error, not panic.
	if _, err := ParseFASTA(strings.NewReader(">\nACGT\n"), "x"); err == nil || !strings.Contains(err.Error(), "empty header") {
		t.Fatalf("bare header: err = %v", err)
	}
	if _, err := ParseFASTA(strings.NewReader("ACGT\n>a\nACGT\n"), "x"); err == nil || !strings.Contains(err.Error(), "before header") {
		t.Fatalf("data before header: err = %v", err)
	}
}

// TestQuickCoordinateRoundTrip: ResidueToCol followed by ColToResidue is
// the identity for every residue of random gapped rows.
func TestQuickCoordinateRoundTrip(t *testing.T) {
	check := func(pattern []bool) bool {
		if len(pattern) == 0 {
			return true
		}
		var sb strings.Builder
		nRes := 0
		for _, isRes := range pattern {
			if isRes {
				sb.WriteByte('A')
				nRes++
			} else {
				sb.WriteByte(Gap)
			}
		}
		if nRes == 0 {
			sb.WriteByte('A') // ensure at least one residue
			nRes = 1
		}
		row := sb.String()
		a, err := New("q", []string{"r"}, []string{row})
		if err != nil {
			return false
		}
		for res := 0; res < nRes; res++ {
			col, err := a.ResidueToCol("r", res)
			if err != nil {
				return false
			}
			back, exact, err := a.ColToResidue("r", col)
			if err != nil || !exact || back != res {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// ErrRange reports a column or residue outside the alignment.
var ErrRange = errors.New("msa: column range out of bounds")

// ColToResidue maps an alignment column to the 0-based ungapped residue
// index in the named row. ok is false when the row has a gap at that
// column.
func (a *Alignment) ColToResidue(id string, col int) (int, bool, error) {
	i, ok := a.rowIndex[id]
	if !ok {
		return 0, false, fmt.Errorf("%w: %q", ErrNoRow, id)
	}
	if col < 0 || col >= a.NumCols() {
		return 0, false, fmt.Errorf("%w: column %d", ErrRange, col)
	}
	row := a.Rows[i]
	res := 0
	for c := 0; c < col; c++ {
		if row[c] != Gap {
			res++
		}
	}
	if row[col] == Gap {
		return res, false, nil
	}
	return res, true, nil
}

// ResidueToCol maps a 0-based ungapped residue index in the named row to
// its alignment column.
func (a *Alignment) ResidueToCol(id string, residue int) (int, error) {
	i, ok := a.rowIndex[id]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoRow, id)
	}
	row := a.Rows[i]
	res := 0
	for c := 0; c < len(row); c++ {
		if row[c] != Gap {
			if res == residue {
				return c, nil
			}
			res++
		}
	}
	return 0, fmt.Errorf("%w: residue %d beyond row %q (%d residues)", ErrRange, residue, id, res)
}

// ColumnsToResidueInterval projects an alignment column interval onto the
// named row as an ungapped residue interval. ok is false when the row is
// all gaps within the columns.
func (a *Alignment) ColumnsToResidueInterval(id string, cols interval.Interval) (interval.Interval, bool, error) {
	i, ok := a.rowIndex[id]
	if !ok {
		return interval.Interval{}, false, fmt.Errorf("%w: %q", ErrNoRow, id)
	}
	if !cols.Valid() || cols.Lo < 0 || cols.Hi > int64(a.NumCols()) {
		return interval.Interval{}, false, fmt.Errorf("%w: %v", ErrRange, cols)
	}
	row := a.Rows[i]
	res := 0
	first, last := -1, -1
	for c := 0; c < int(cols.Hi); c++ {
		if row[c] == Gap {
			continue
		}
		if c >= int(cols.Lo) {
			if first == -1 {
				first = res
			}
			last = res
		}
		res++
	}
	if first == -1 {
		return interval.Interval{}, false, nil
	}
	return interval.Interval{Lo: int64(first), Hi: int64(last) + 1}, true, nil
}

// Conservation returns, for each column in cols, the fraction of non-gap
// residues matching the column's majority residue.
func (a *Alignment) Conservation(cols interval.Interval) ([]float64, error) {
	if !cols.Valid() || cols.Lo < 0 || cols.Hi > int64(a.NumCols()) {
		return nil, fmt.Errorf("%w: %v", ErrRange, cols)
	}
	out := make([]float64, 0, cols.Hi-cols.Lo)
	for c := cols.Lo; c < cols.Hi; c++ {
		counts := map[byte]int{}
		total := 0
		for _, row := range a.Rows {
			b := row[c]
			if b == Gap {
				continue
			}
			counts[b]++
			total++
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		if total == 0 {
			out = append(out, 0)
		} else {
			out = append(out, float64(best)/float64(total))
		}
	}
	return out, nil
}

// ParseFASTA reads an alignment from aligned-FASTA text (all records the
// same length, '-' for gaps).
func ParseFASTA(r io.Reader, id string) (*Alignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	var ids []string
	var rows []string
	var body strings.Builder
	cur := ""
	flush := func() {
		if cur != "" {
			ids = append(ids, cur)
			rows = append(rows, strings.ToUpper(body.String()))
			body.Reset()
		}
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == '>' {
			flush()
			fields := strings.Fields(line[1:])
			if len(fields) == 0 {
				return nil, fmt.Errorf("msa: empty header at line %d", lineNo)
			}
			cur = fields[0]
			continue
		}
		if cur == "" {
			return nil, fmt.Errorf("msa: sequence data before header at line %d", lineNo)
		}
		body.WriteString(line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("msa: read: %w", err)
	}
	flush()
	return New(id, ids, rows)
}
