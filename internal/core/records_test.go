package core

import (
	"errors"
	"slices"
	"testing"

	"graphitti/internal/relstore"
)

func findingsSchema(name string) *relstore.Schema {
	return relstore.MustSchema(name, "id",
		relstore.Column{Name: "id", Type: relstore.Int64},
		relstore.Column{Name: "gene", Type: relstore.String, NotNull: true},
		relstore.Column{Name: "score", Type: relstore.Float64},
	)
}

// TestRecordTableNames: a record table may take any name but a built-in
// object type's — MarkObject resolves those to the typed registries, so a
// table behind one could never be marked — or a live table's. The refusal
// is the one a snapshot loader has always seen for these names.
func TestRecordTableNames(t *testing.T) {
	s := NewStore()
	mustNoErr(t, s.CreateRecordTable(findingsSchema("findings")))
	for _, tc := range []struct {
		name    string
		refused bool
	}{
		{string(TypeDNA), true},
		{string(TypeRNA), true},
		{string(TypeProtein), true},
		{string(TypeAlignment), true},
		{string(TypeTree), true},
		{string(TypeInteraction), true},
		{string(TypeImage), true},
		{"findings", true},          // duplicate user table
		{string(TypeRecord), false}, // the record-set type's own name is free
		{"isolates", false},
	} {
		before := s.View().Epoch()
		err := s.CreateRecordTable(findingsSchema(tc.name))
		switch {
		case tc.refused && !errors.Is(err, relstore.ErrDuplicateName):
			t.Errorf("CreateRecordTable(%q) = %v, want ErrDuplicateName", tc.name, err)
		case tc.refused && s.View().Epoch() != before:
			t.Errorf("refused CreateRecordTable(%q) published a view", tc.name)
		case !tc.refused && err != nil:
			t.Errorf("CreateRecordTable(%q): %v", tc.name, err)
		case !tc.refused && s.View().Epoch() != before+1:
			t.Errorf("CreateRecordTable(%q) moved the epoch %d -> %d", tc.name, before, s.View().Epoch())
		}
	}
	if got, want := s.View().RecordTables(), []string{"findings", "isolates", "records"}; !slices.Equal(got, want) {
		t.Fatalf("RecordTables = %v, want %v", got, want)
	}
}

// TestInsertRecordChecks: every insert is checked against the schema, a
// primary key is taken once (numerically: 3 and 3.0 are one key), a
// refused insert publishes nothing, and the table keeps its own copy of
// the row.
func TestInsertRecordChecks(t *testing.T) {
	s := NewStore()
	mustNoErr(t, s.CreateRecordTable(findingsSchema("findings")))
	row := func(id relstore.Value, gene relstore.Value, score relstore.Value) relstore.Row {
		return relstore.Row{id, gene, score}
	}
	for _, tc := range []struct {
		name string
		row  relstore.Row
		want error
	}{
		{"arity", relstore.Row{relstore.I(1)}, relstore.ErrBadSchema},
		{"type mismatch", row(relstore.S("one"), relstore.S("TP53"), relstore.F(0.5)), relstore.ErrTypeMismatch},
		{"null in not-null column", row(relstore.I(1), relstore.Null, relstore.F(0.5)), relstore.ErrNotNull},
		{"null primary key", row(relstore.Null, relstore.S("TP53"), relstore.F(0.5)), relstore.ErrNotNull},
		{"valid", row(relstore.I(3), relstore.S("TP53"), relstore.F(0.5)), nil},
		{"int into float column", row(relstore.I(4), relstore.S("NS1"), relstore.I(1)), nil},
		{"null in nullable column", row(relstore.I(5), relstore.S("HA"), relstore.Null), nil},
		{"duplicate key", row(relstore.I(3), relstore.S("other"), relstore.F(0.1)), relstore.ErrDuplicateKey},
	} {
		before := s.View().Epoch()
		err := s.InsertRecord("findings", tc.row)
		if tc.want == nil {
			if err != nil || s.View().Epoch() != before+1 {
				t.Errorf("%s: err %v, epoch %d -> %d", tc.name, err, before, s.View().Epoch())
			}
			continue
		}
		if !errors.Is(err, tc.want) || s.View().Epoch() != before {
			t.Errorf("%s: err %v (want %v), epoch %d -> %d", tc.name, err, tc.want, before, s.View().Epoch())
		}
	}

	mine := row(relstore.I(9), relstore.S("PB2"), relstore.F(0.9))
	mustNoErr(t, s.InsertRecord("findings", mine))
	mine[1] = relstore.S("scribbled")
	_, rows, err := s.View().RecordTable("findings")
	mustNoErr(t, err)
	if len(rows) != 4 || rows[0][0].Int() != 3 || rows[3][0].Int() != 9 || rows[3][1].Str() != "PB2" {
		t.Fatalf("rows = %v", rows)
	}
	if _, err := s.View().MarkRecords("findings", relstore.F(3)); err != nil {
		t.Errorf("3.0 does not find the row keyed 3: %v", err)
	}
}

// TestRecordInsertIsPinned: a record row is part of the view its insert
// published and of no earlier one. A view pinned before the insert lists
// the table without the row and refuses to mark it; the current view has
// both.
func TestRecordInsertIsPinned(t *testing.T) {
	s := NewStore()
	mustNoErr(t, s.CreateRecordTable(findingsSchema("findings")))
	mustNoErr(t, s.InsertRecord("findings", relstore.Row{relstore.I(1), relstore.S("TP53"), relstore.Null}))

	pinned := s.View()
	k := relstore.I(2)
	mustNoErr(t, s.InsertRecord("findings", relstore.Row{k, relstore.S("NS1"), relstore.Null}))
	mustNoErr(t, s.CreateRecordTable(findingsSchema("later")))
	current := s.View()
	if current.Epoch() != pinned.Epoch()+2 {
		t.Fatalf("epoch %d -> %d over two ops", pinned.Epoch(), current.Epoch())
	}

	if _, err := pinned.MarkRecords("findings", k); !errors.Is(err, ErrBadMark) {
		t.Errorf("pinned view marks a row inserted after it: %v", err)
	}
	if _, err := pinned.MarkRecords("findings", relstore.I(1)); err != nil {
		t.Errorf("pinned view lost its own row: %v", err)
	}
	if _, rows, err := pinned.RecordTable("findings"); err != nil || len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Errorf("pinned view's rows = %v, %v", rows, err)
	}
	if _, err := pinned.MarkRecords("later", k); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("pinned view knows a table created after it: %v", err)
	}
	if got := pinned.RecordTables(); len(got) != 1 {
		t.Errorf("pinned view's tables = %v", got)
	}

	if _, err := current.MarkRecords("findings", k, relstore.I(1)); err != nil {
		t.Errorf("current view: %v", err)
	}
	if _, rows, err := current.RecordTable("findings"); err != nil || len(rows) != 2 {
		t.Errorf("current view's rows = %v, %v", rows, err)
	}
}
