package core

import (
	"fmt"
	"sort"

	"graphitti/internal/cow"
	"graphitti/internal/relstore"
)

// recordTable is one user record table as a view holds it: the schema and
// the rows filed under their primary key's relstore.Value.Key. It is a
// value — an insert builds the successor table, sharing every other row,
// and publishes it in a successor view.
type recordTable struct {
	schema *relstore.Schema
	rows   cow.Map[relstore.Row]
}

// reservedTableName reports whether name is a built-in object type's. A
// record table of that name would be unreachable through MarkObject,
// which resolves the built-in types first.
func reservedTableName(name string) bool {
	switch ObjectType(name) {
	case TypeDNA, TypeRNA, TypeProtein, TypeAlignment, TypeTree, TypeInteraction, TypeImage:
		return true
	}
	return false
}

// RecordTables returns the names of all user record tables, sorted.
func (s *Store) RecordTables() []string { return s.View().RecordTables() }

// CreateRecordTable creates a user-defined relational table whose rows can
// be annotated as record-set referents (the demo's "relational records").
// The names of the built-in object types are taken.
func (s *Store) CreateRecordTable(schema *relstore.Schema) error {
	s.w.Lock()
	defer s.w.Unlock()
	v := s.v.Load()
	if _, dup := v.recordTables.Get(schema.Name); dup || reservedTableName(schema.Name) {
		return fmt.Errorf("%w: table %s", relstore.ErrDuplicateName, schema.Name)
	}
	tables := v.recordTables.Edit()
	tables.Set(schema.Name, recordTable{schema: schema})
	nv := v.clone()
	nv.recordTables = tables.Map
	nv.recTableNames = insertSortedStr(v.recTableNames, schema.Name)
	nv.objects = insertSortedObject(v.objects, ObjectHandle{TypeRecord, schema.Name})
	s.publish(nv)
	return nil
}

// InsertRecord inserts a row into a user record table, making it markable
// (MarkRecords) from the view this publishes on.
func (s *Store) InsertRecord(table string, row relstore.Row) error {
	s.w.Lock()
	defer s.w.Unlock()
	v := s.v.Load()
	t, ok := v.recordTables.Get(table)
	if !ok {
		return errNoSuchObject("record table", table)
	}
	if err := t.schema.CheckRow(row); err != nil {
		return err
	}
	pk := row[t.schema.KeyIndex()]
	key := pk.Key()
	if _, dup := t.rows.Get(key); dup {
		return fmt.Errorf("%w: %s in %s", relstore.ErrDuplicateKey, pk, table)
	}
	rows := t.rows.Edit()
	rows.Set(key, row.Clone())
	t.rows = rows.Map
	tables := v.recordTables.Edit()
	tables.Set(table, t)
	nv := v.clone()
	nv.recordTables = tables.Map
	s.publish(nv)
	return nil
}

// RecordTable returns a user record table's schema and its rows in
// primary-key order. The rows belong to the view: read, don't modify.
func (v *View) RecordTable(name string) (*relstore.Schema, []relstore.Row, error) {
	t, ok := v.recordTables.Get(name)
	if !ok {
		return nil, nil, errNoSuchObject("record table", name)
	}
	rows := make([]relstore.Row, 0, t.rows.Len())
	t.rows.Each(func(_ string, r relstore.Row) bool {
		rows = append(rows, r)
		return true
	})
	ki := t.schema.KeyIndex()
	sort.Slice(rows, func(i, j int) bool {
		c, _ := rows[i][ki].Compare(rows[j][ki])
		return c < 0
	})
	return t.schema, rows, nil
}
