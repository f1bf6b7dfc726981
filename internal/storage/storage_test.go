package storage

import (
	"slices"
	"strings"
	"testing"

	"cyclesql/internal/schema"
	"cyclesql/internal/sqltypes"
)

func testDB() *Database {
	s := &schema.Schema{
		Name: "pets",
		Tables: []*schema.Table{
			{Name: "Pet", Columns: []schema.Column{
				{Name: "id", Type: sqltypes.KindInt, PrimaryKey: true},
				{Name: "name", Type: sqltypes.KindText},
				{Name: "weight", Type: sqltypes.KindFloat},
			}},
		},
	}
	return NewDatabase(s)
}

func TestInsertAndRead(t *testing.T) {
	db := testDB()
	if err := db.Insert("Pet", sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewText("Rex"), sqltypes.NewFloat(12.5)}); err != nil {
		t.Fatal(err)
	}
	rel := db.Table("pet") // case-insensitive
	if rel == nil || rel.NumRows() != 1 {
		t.Fatal("insert not visible")
	}
	if db.NumRows("Pet") != 1 || db.TotalRows() != 1 {
		t.Fatal("row counts wrong")
	}
}

func TestInsertArityCheck(t *testing.T) {
	db := testDB()
	if err := db.Insert("Pet", sqltypes.Row{sqltypes.NewInt(1)}); err == nil {
		t.Fatal("short row must fail")
	}
	if err := db.Insert("Ghost", sqltypes.Row{}); err == nil {
		t.Fatal("unknown table must fail")
	}
}

func TestInsertCoercion(t *testing.T) {
	db := testDB()
	// Int into REAL column widens; float into INT truncates.
	db.MustInsert("Pet", sqltypes.NewFloat(2.9), sqltypes.NewInt(42), sqltypes.NewInt(10))
	row := db.Table("Pet").Rows[0]
	if row[0].Kind() != sqltypes.KindInt || row[0].Int() != 2 {
		t.Fatalf("float->int coercion: %v", row[0])
	}
	if row[1].Kind() != sqltypes.KindText || row[1].Text() != "42" {
		t.Fatalf("int->text coercion: %v", row[1])
	}
	if row[2].Kind() != sqltypes.KindFloat || row[2].Float() != 10.0 {
		t.Fatalf("int->float coercion: %v", row[2])
	}
}

func TestNullPassesThroughCoercion(t *testing.T) {
	db := testDB()
	db.MustInsert("Pet", sqltypes.NewInt(1), sqltypes.Null(), sqltypes.Null())
	row := db.Table("Pet").Rows[0]
	if !row[1].IsNull() || !row[2].IsNull() {
		t.Fatal("NULL must survive coercion")
	}
}

func TestCloneIsolation(t *testing.T) {
	db := testDB()
	db.MustInsert("Pet", sqltypes.NewInt(1), sqltypes.NewText("Rex"), sqltypes.NewFloat(1))
	cp := db.Clone()
	cp.Table("Pet").Rows[0][1] = sqltypes.NewText("Mutated")
	cp.MustInsert("Pet", sqltypes.NewInt(2), sqltypes.NewText("Two"), sqltypes.NewFloat(2))
	if db.Table("Pet").Rows[0][1].Text() != "Rex" || db.NumRows("Pet") != 1 {
		t.Fatal("Clone must be deep")
	}
}

func TestMutateVisitsEveryRow(t *testing.T) {
	db := testDB()
	db.MustInsert("Pet", sqltypes.NewInt(1), sqltypes.NewText("a"), sqltypes.NewFloat(1))
	db.MustInsert("Pet", sqltypes.NewInt(2), sqltypes.NewText("b"), sqltypes.NewFloat(2))
	n := 0
	db.Mutate(func(table string, row sqltypes.Row) {
		n++
		row[2] = sqltypes.NewFloat(row[2].Float() * 2)
	})
	if n != 2 {
		t.Fatalf("visited %d rows", n)
	}
	if db.Table("Pet").Rows[1][2].Float() != 4 {
		t.Fatal("mutation not applied in place")
	}
}

// TestMutateVisitsTablesInSchemaOrder pins Mutate's table order: a
// stateful fn (the test-suite distillation's seeded rng) must see the same
// row sequence on every call, so tables go in schema order, never map
// order. Clones rebuild their table map, so they are checked too.
func TestMutateVisitsTablesInSchemaOrder(t *testing.T) {
	s := &schema.Schema{Name: "many"}
	var want []string
	for _, name := range []string{"Zeta", "alpha", "Mid", "beta", "Omega", "gamma"} {
		s.Tables = append(s.Tables, &schema.Table{Name: name, Columns: []schema.Column{{Name: "x", Type: sqltypes.KindInt}}})
		want = append(want, strings.ToLower(name))
	}
	db := NewDatabase(s)
	for _, tbl := range s.Tables {
		db.MustInsert(tbl.Name, sqltypes.NewInt(1))
	}
	for i := 0; i < 20; i++ {
		var got []string
		db.Clone().Mutate(func(table string, _ sqltypes.Row) { got = append(got, table) })
		if !slices.Equal(got, want) {
			t.Fatalf("Mutate visited %v, want schema order %v", got, want)
		}
	}
}

func TestCoerceEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		in   sqltypes.Value
		want sqltypes.Kind
		eq   sqltypes.Value
	}{
		{"null into int", sqltypes.Null(), sqltypes.KindNull, sqltypes.Null()},
		{"negative float truncates toward zero", sqltypes.NewFloat(-2.9), sqltypes.KindInt, sqltypes.NewInt(-2)},
		{"integral float collapses", sqltypes.NewFloat(4.0), sqltypes.KindInt, sqltypes.NewInt(4)},
		{"int passes through int", sqltypes.NewInt(7), sqltypes.KindInt, sqltypes.NewInt(7)},
		{"text stays text in int column", sqltypes.NewText("12"), sqltypes.KindText, sqltypes.NewText("12")},
	}
	for _, c := range cases {
		got := coerce(c.in, sqltypes.KindInt)
		if got.Kind() != c.want || !sqltypes.Equal(got, c.eq) {
			t.Errorf("%s: coerce(%v, INT) = %v (%v)", c.name, c.in, got, got.Kind())
		}
	}
	if got := coerce(sqltypes.NewFloat(2.5), sqltypes.KindText); got.Kind() != sqltypes.KindText || got.Text() != "2.5" {
		t.Errorf("float->TEXT: %v (%v)", got, got.Kind())
	}
	if got := coerce(sqltypes.NewInt(-8), sqltypes.KindText); got.Kind() != sqltypes.KindText || got.Text() != "-8" {
		t.Errorf("int->TEXT: %v (%v)", got, got.Kind())
	}
	if got := coerce(sqltypes.Null(), sqltypes.KindText); !got.IsNull() {
		t.Errorf("NULL->TEXT: %v", got)
	}
	if got := coerce(sqltypes.NewInt(3), sqltypes.KindFloat); got.Kind() != sqltypes.KindFloat || got.Float() != 3.0 {
		t.Errorf("int->REAL: %v (%v)", got, got.Kind())
	}
	if got := coerce(sqltypes.Null(), sqltypes.KindFloat); !got.IsNull() {
		t.Errorf("NULL->REAL: %v", got)
	}
	if got := coerce(sqltypes.NewText("abc"), sqltypes.KindFloat); got.Kind() != sqltypes.KindText {
		t.Errorf("non-numeric text must pass through REAL column: %v", got)
	}
}

func TestMustInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustInsert must panic on bad data")
		}
	}()
	testDB().MustInsert("Pet", sqltypes.NewInt(1))
}
