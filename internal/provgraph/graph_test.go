package provgraph

import (
	"strings"
	"testing"

	"cyclesql/internal/schema"
	"cyclesql/internal/sqltypes"
)

func worldSchema() *schema.Schema {
	return &schema.Schema{
		Name: "s",
		Tables: []*schema.Table{
			{Name: "Concert", Columns: []schema.Column{{Name: "id", Type: sqltypes.KindInt, PrimaryKey: true}}},
			{Name: "Singer", Columns: []schema.Column{{Name: "id", Type: sqltypes.KindInt, PrimaryKey: true}}},
			{Name: "Singer_in_concert", Columns: []schema.Column{
				{Name: "concert_id", Type: sqltypes.KindInt},
				{Name: "singer_id", Type: sqltypes.KindInt},
			}},
			{Name: "Review", Columns: []schema.Column{{Name: "id", Type: sqltypes.KindInt}, {Name: "concert_id", Type: sqltypes.KindInt}}},
		},
		ForeignKeys: []schema.ForeignKey{
			{Table: "Singer_in_concert", Column: "concert_id", RefTable: "Concert", RefColumn: "id"},
			{Table: "Singer_in_concert", Column: "singer_id", RefTable: "Singer", RefColumn: "id"},
			{Table: "Review", Column: "concert_id", RefTable: "Concert", RefColumn: "id"},
		},
	}
}

// The paper's Fig 6: a junction table joining two entities matches
// subject-relationship-object and instantiates "singer with concert".
func TestDiscoverJoinJunction(t *testing.T) {
	js := DiscoverJoin(worldSchema(), []string{"Concert", "Singer_in_concert", "Singer"})
	if js.Topology != "subject-relationship-object" {
		t.Fatalf("topology = %q", js.Topology)
	}
	if !strings.Contains(js.Phrase, "with") {
		t.Fatalf("phrase = %q", js.Phrase)
	}
}

func TestDiscoverJoinTwoTables(t *testing.T) {
	js := DiscoverJoin(worldSchema(), []string{"Concert", "Review"})
	if js.Topology != "object-object" {
		t.Fatalf("topology = %q", js.Topology)
	}
}

func TestDiscoverJoinChainIsObjectAttribute(t *testing.T) {
	// Review -> Concert -> (via junction) is not a junction pattern:
	// Review-Concert-Singer_in_concert forms a chain centred on Concert,
	// and Concert has no out-FKs, so the object-attribute reading wins.
	js := DiscoverJoin(worldSchema(), []string{"Review", "Concert", "Singer_in_concert"})
	if js.Topology != "object-attribute" {
		t.Fatalf("topology = %q (phrase %q)", js.Topology, js.Phrase)
	}
}

func TestDiscoverJoinFallback(t *testing.T) {
	s := worldSchema()
	// Concert and Singer share no FK: no pool match, fallback phrase.
	js := DiscoverJoin(s, []string{"Concert", "Singer"})
	if js.Topology != "" {
		t.Fatalf("expected fallback, got %q", js.Topology)
	}
	if js.Phrase == "" {
		t.Fatal("fallback phrase empty")
	}
}

func TestDiscoverJoinSingleTable(t *testing.T) {
	js := DiscoverJoin(worldSchema(), []string{"Concert"})
	if js.Phrase != "concert" {
		t.Fatalf("single-table phrase = %q", js.Phrase)
	}
}
