package relstore

import (
	"errors"
	"fmt"
)

// Errors reported by schema validation and by the record tables built
// from these values (internal/core).
var (
	ErrDuplicateKey  = errors.New("relstore: duplicate primary key")
	ErrTypeMismatch  = errors.New("relstore: value type does not match column type")
	ErrNotNull       = errors.New("relstore: NULL in NOT NULL column")
	ErrBadSchema     = errors.New("relstore: invalid schema")
	ErrNoSuchRow     = errors.New("relstore: no such row")
	ErrDuplicateName = errors.New("relstore: duplicate name")
)

// Column describes one attribute of a relation.
type Column struct {
	Name    string
	Type    Type
	NotNull bool
}

// Schema describes a relation: its name, columns, and primary key column.
type Schema struct {
	Name    string
	Columns []Column
	// Key names the primary key column. It must exist, be NOT NULL
	// implicitly, and hold unique values.
	Key string

	byName map[string]int
}

// NewSchema builds and validates a schema.
func NewSchema(name string, key string, cols ...Column) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty table name", ErrBadSchema)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("%w: table %s has no columns", ErrBadSchema, name)
	}
	s := &Schema{Name: name, Columns: cols, Key: key, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("%w: column %d of %s unnamed", ErrBadSchema, i, name)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("%w: column %s in %s", ErrDuplicateName, c.Name, name)
		}
		s.byName[c.Name] = i
	}
	if _, ok := s.byName[key]; !ok {
		return nil, fmt.Errorf("%w: key column %q not in table %s", ErrBadSchema, key, name)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for static schemas.
func MustSchema(name string, key string, cols ...Column) *Schema {
	s, err := NewSchema(name, key, cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// HasColumn reports whether the named column exists.
func (s *Schema) HasColumn(name string) bool {
	_, ok := s.byName[name]
	return ok
}

// KeyIndex returns the position of the primary key column.
func (s *Schema) KeyIndex() int { return s.byName[s.Key] }

// CheckRow validates a row against the schema.
func (s *Schema) CheckRow(row Row) error {
	if len(row) != len(s.Columns) {
		return fmt.Errorf("%w: row has %d values, table %s has %d columns",
			ErrBadSchema, len(row), s.Name, len(s.Columns))
	}
	for i, c := range s.Columns {
		v := row[i]
		if v.IsNull() {
			if c.NotNull || c.Name == s.Key {
				return fmt.Errorf("%w: %s.%s", ErrNotNull, s.Name, c.Name)
			}
			continue
		}
		if v.Type() != c.Type {
			// Int64 values are acceptable in Float64 columns.
			if c.Type == Float64 && v.Type() == Int64 {
				continue
			}
			return fmt.Errorf("%w: %s.%s is %s, value is %s",
				ErrTypeMismatch, s.Name, c.Name, c.Type, v.Type())
		}
	}
	return nil
}

// Row is a tuple of values, positionally aligned with the schema's columns.
type Row []Value

// Clone returns a copy of the row (values are immutable; the slice is
// copied so callers can retain results safely).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
