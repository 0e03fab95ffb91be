package relstore

import (
	"errors"
	"strings"
	"testing"
)

func seqSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("sequences", "id",
		Column{Name: "id", Type: String},
		Column{Name: "organism", Type: String, NotNull: true},
		Column{Name: "length", Type: Int64},
		Column{Name: "gc", Type: Float64},
		Column{Name: "circular", Type: Bool},
		Column{Name: "data", Type: Bytes},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func seqRow(id, org string, length int64, gc float64) Row {
	return Row{S(id), S(org), I(length), F(gc), B(false), Blob([]byte("ACGT"))}
}

func TestValueBasics(t *testing.T) {
	if !I(3).Equal(I(3)) || I(3).Equal(I(4)) {
		t.Fatal("int equality wrong")
	}
	if !I(3).Equal(F(3.0)) {
		t.Fatal("cross numeric equality should hold")
	}
	if Null.Equal(Null) {
		t.Fatal("NULL must not equal NULL")
	}
	if S("a").Equal(I(1)) {
		t.Fatal("cross-type equality should fail")
	}
	if c, ok := S("a").Compare(S("b")); !ok || c >= 0 {
		t.Fatal("string compare wrong")
	}
	if _, ok := S("a").Compare(I(1)); ok {
		t.Fatal("string/int must be incomparable")
	}
	if c, ok := I(2).Compare(F(2.5)); !ok || c >= 0 {
		t.Fatal("numeric cross compare wrong")
	}
	if !B(true).BoolVal() {
		t.Fatal("bool payload wrong")
	}
	if I(3).Key() != F(3.0).Key() {
		t.Fatal("hash keys of equal numerics must agree")
	}
	if S("3").Key() == I(3).Key() {
		t.Fatal("hash keys must be type-tagged")
	}
}

func TestValueStrings(t *testing.T) {
	cases := map[string]Value{
		"NULL":           Null,
		"42":             I(42),
		"2.5":            F(2.5),
		`"x"`:            S("x"),
		"true":           B(true),
		"blob (3 bytes)": Blob([]byte("abc")),
	}
	for want, v := range cases {
		got := v.String()
		if want == "blob (3 bytes)" {
			if !strings.Contains(got, "3 bytes") {
				t.Errorf("Blob String = %q", got)
			}
			continue
		}
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if BytesVal := Blob([]byte("xy")).BytesVal(); string(BytesVal) != "xy" {
		t.Error("BytesVal wrong")
	}
	// Key covers every type and distinguishes NULL.
	keys := map[string]bool{}
	for _, v := range []Value{Null, I(1), F(1.5), S("s"), B(true), B(false), Blob([]byte("b"))} {
		k := v.Key()
		if keys[k] {
			t.Errorf("hash collision for %v", v)
		}
		keys[k] = true
	}
	// Bool and bytes compare.
	if c, ok := B(false).Compare(B(true)); !ok || c >= 0 {
		t.Error("bool compare wrong")
	}
	if c, ok := Blob([]byte("a")).Compare(Blob([]byte("b"))); !ok || c >= 0 {
		t.Error("bytes compare wrong")
	}
	if _, ok := Null.Compare(I(1)); ok {
		t.Error("NULL must be incomparable")
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema("", "id", Column{Name: "id", Type: Int64}); err == nil {
		t.Fatal("empty table name accepted")
	}
	if _, err := NewSchema("t", "id"); err == nil {
		t.Fatal("no columns accepted")
	}
	if _, err := NewSchema("t", "missing", Column{Name: "id", Type: Int64}); err == nil {
		t.Fatal("missing key column accepted")
	}
	if _, err := NewSchema("t", "id",
		Column{Name: "id", Type: Int64}, Column{Name: "id", Type: String}); err == nil {
		t.Fatal("duplicate column accepted")
	}
}

func TestSchemaHasColumnAndAccessors(t *testing.T) {
	s := seqSchema(t)
	if !s.HasColumn("organism") || s.HasColumn("ghost") {
		t.Error("HasColumn wrong")
	}
	if s.KeyIndex() != 0 || s.Columns[s.KeyIndex()].Name != s.Key {
		t.Error("KeyIndex wrong")
	}
}

func TestRowValidation(t *testing.T) {
	schema := seqSchema(t)
	// Wrong arity.
	if err := schema.CheckRow(Row{S("x")}); !errors.Is(err, ErrBadSchema) {
		t.Fatalf("arity: err = %v", err)
	}
	// Type mismatch.
	bad := seqRow("a", "org", 1, 0)
	bad[2] = S("not-an-int")
	if err := schema.CheckRow(bad); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("type mismatch: err = %v", err)
	}
	// NULL in NOT NULL column.
	bad2 := seqRow("b", "org", 1, 0)
	bad2[1] = Null
	if err := schema.CheckRow(bad2); !errors.Is(err, ErrNotNull) {
		t.Fatalf("not null: err = %v", err)
	}
	// NULL primary key.
	bad3 := seqRow("c", "org", 1, 0)
	bad3[0] = Null
	if err := schema.CheckRow(bad3); !errors.Is(err, ErrNotNull) {
		t.Fatalf("null pk: err = %v", err)
	}
	// Int into float column is fine.
	ok := seqRow("d", "org", 1, 0)
	ok[3] = I(1)
	if err := schema.CheckRow(ok); err != nil {
		t.Fatalf("int into float rejected: %v", err)
	}
	// NULL in nullable column is fine.
	ok2 := seqRow("e", "org", 1, 0)
	ok2[5] = Null
	if err := schema.CheckRow(ok2); err != nil {
		t.Fatalf("null in nullable rejected: %v", err)
	}
}
