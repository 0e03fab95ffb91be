// Package msa models multiple sequence alignments, one of the data types
// registered in the paper's Avian-Influenza demonstration study
// ("multiple sequence alignment structures").
//
// An alignment is a rectangular matrix of residues and gaps. Annotation
// marks on alignments are blocks: a subset of rows crossed with a column
// interval.
package msa

import (
	"errors"
	"fmt"

	"graphitti/internal/interval"
)

// Gap is the gap character in aligned rows.
const Gap = '-'

// Errors reported by alignment operations.
var (
	ErrShape    = errors.New("msa: rows have differing lengths")
	ErrNoRow    = errors.New("msa: no such row")
	ErrEmpty    = errors.New("msa: alignment has no rows")
	ErrBadBlock = errors.New("msa: invalid block")
)

// Alignment is a multiple sequence alignment.
type Alignment struct {
	// ID names the alignment (e.g. "HA-align-2007").
	ID string
	// RowIDs holds the sequence accessions, aligned with Rows.
	RowIDs []string
	// Rows holds the aligned residue strings (equal lengths, '-' gaps).
	Rows []string

	rowIndex map[string]int
}

// New validates shape and returns an alignment.
func New(id string, rowIDs []string, rows []string) (*Alignment, error) {
	if len(rows) == 0 {
		return nil, ErrEmpty
	}
	if len(rowIDs) != len(rows) {
		return nil, fmt.Errorf("%w: %d ids for %d rows", ErrShape, len(rowIDs), len(rows))
	}
	width := len(rows[0])
	idx := make(map[string]int, len(rows))
	for i, r := range rows {
		if len(r) != width {
			return nil, fmt.Errorf("%w: row %d has %d columns, row 0 has %d", ErrShape, i, len(r), width)
		}
		if _, dup := idx[rowIDs[i]]; dup {
			return nil, fmt.Errorf("msa: duplicate row id %q", rowIDs[i])
		}
		idx[rowIDs[i]] = i
	}
	return &Alignment{ID: id, RowIDs: append([]string(nil), rowIDs...),
		Rows: append([]string(nil), rows...), rowIndex: idx}, nil
}

// NumCols returns the alignment width.
func (a *Alignment) NumCols() int {
	if len(a.Rows) == 0 {
		return 0
	}
	return len(a.Rows[0])
}

// Block is an annotation mark on an alignment: a set of rows crossed with a
// column interval.
type Block struct {
	RowIDs []string
	Cols   interval.Interval
}

// Block validates and returns a block mark over the alignment.
func (a *Alignment) Block(rowIDs []string, cols interval.Interval) (*Block, error) {
	if len(rowIDs) == 0 {
		return nil, fmt.Errorf("%w: no rows", ErrBadBlock)
	}
	if !cols.Valid() || cols.Lo < 0 || cols.Hi > int64(a.NumCols()) {
		return nil, fmt.Errorf("%w: columns %v", ErrBadBlock, cols)
	}
	for _, id := range rowIDs {
		if _, ok := a.rowIndex[id]; !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoRow, id)
		}
	}
	return &Block{RowIDs: append([]string(nil), rowIDs...), Cols: cols}, nil
}
