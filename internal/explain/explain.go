// Package explain implements CycleSQL's explanation-generation stage
// (paper §IV-B and §IV-C, Algorithm 1). Given the provenance of a query
// result, it synthesizes a data-grounded natural-language explanation:
//
//  1. GENERATE-SUMMARY — a brief summary of the result set (column/row
//     counts, aggregation types, surface filters);
//  2. enrichment — each SELECT core decomposes into typed query-unit
//     labels, each anchored to one provenance column or to the provenance
//     table as a whole; the anchored columns and their values in the
//     representative provenance row stand in for the paper's provenance
//     graph;
//  3. GENERATE-PHRASE — an NL phrase per label, grounding operation-level
//     semantics in the concrete data values;
//  4. COMPOSE-PHRASE — concatenation with descriptive connectives.
//
// The generated text is intentionally mechanical; a Polisher can refine it
// for readability (the paper uses a few-shot prompted LLM; this repo ships
// a rule-based polisher, see ARCHITECTURE.md "Substitutions").
package explain

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"cyclesql/internal/provenance"
	"cyclesql/internal/provgraph"
	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqltypes"
	"cyclesql/internal/storage"
)

// Polisher refines the mechanical explanation for readability.
type Polisher interface {
	Polish(text string) string
}

// Explanation is the generated NL explanation of one query result tuple.
type Explanation struct {
	Text string // composed full text
	Prov *provenance.Provenance
}

// Explainer generates explanations against one database. It is safe for
// concurrent use once Polish is set: the in-flight provenance is passed
// explicitly through the generation call chain (no per-explanation state
// lives on the struct), and the shared tracker guards its own memoization
// — so the CycleSQL loop can explain beam candidates in parallel through
// one cached explainer. Set Polish before the first Explain and leave it
// unchanged afterwards.
type Explainer struct {
	Polish Polisher // optional; set before first use

	db *storage.Database
	// tracker persists across Explain calls so repeated explanations
	// against the same database reuse compiled provenance statements —
	// its rewrite cache keys on rendered core SQL and its executor's plan
	// cache on canonical SQL, so textually identical candidates share
	// work even when every beam hands over a fresh AST. Callers that
	// alternate databases cache whole explainers instead (see
	// core.DataGrounded).
	tracker *provenance.Tracker
}

// New returns an Explainer over db with no polisher.
func New(db *storage.Database) *Explainer {
	return &Explainer{db: db, tracker: provenance.NewTracker(db)}
}

// Explain produces the explanation for row rowIdx of result, which must be
// the output of executing stmt against the explainer's database. For empty
// results the explanation is generated from operation-level semantics
// alone.
func (e *Explainer) Explain(stmt *sqlast.SelectStmt, result *sqltypes.Relation, rowIdx int) (*Explanation, error) {
	return e.ExplainContext(context.Background(), stmt, result, rowIdx)
}

// ExplainContext is Explain with cancellation: the provenance queries the
// tracker executes run under ctx, so the CycleSQL loop can abort an
// in-flight speculative explanation once an earlier candidate validates.
// Phrase generation itself is pure in-memory string work and finishes
// without further checks once tracking completes.
func (e *Explainer) ExplainContext(ctx context.Context, stmt *sqlast.SelectStmt, result *sqltypes.Relation, rowIdx int) (*Explanation, error) {
	prov, err := e.tracker.TrackContext(ctx, stmt, result, rowIdx)
	if err != nil {
		return nil, err
	}
	return e.FromProvenance(prov)
}

// FromProvenance generates the explanation from already-tracked provenance:
// the summary, then one step per SELECT core stitched with set-operation
// connectives (COMPOSE-PHRASE). The provenance is threaded explicitly
// through the generation chain, so concurrent calls on one Explainer never
// observe each other's tuples.
func (e *Explainer) FromProvenance(prov *provenance.Provenance) (*Explanation, error) {
	var b strings.Builder
	e.summary(&b, prov)
	steps := len(prov.Parts)
	if prov.Empty {
		steps = len(prov.Original.Cores)
	}
	var labels []label
	for i := 0; i < steps; i++ {
		b.WriteByte(' ')
		if i > 0 && i-1 < len(prov.Original.Ops) {
			switch prov.Original.Ops[i-1] {
			case sqlast.Intersect:
				b.WriteString("And also: ")
			case sqlast.Except:
				b.WriteString("Excluding: ")
			default:
				b.WriteString("Or: ")
			}
		}
		if prov.Empty {
			// Operation-level semantics only (paper §IV-A, empty results).
			e.operationStep(&b, prov.Original.Cores[i])
			continue
		}
		part := prov.Parts[i]
		labels = labelCore(labels[:0], part.Core)
		anchor(labels, part.Table)
		e.phraseStep(&b, prov, part, labels)
	}
	out := &Explanation{Prov: prov, Text: strings.Join(strings.Fields(b.String()), " ")}
	if e.Polish != nil {
		out.Text = e.Polish.Polish(out.Text)
	}
	return out, nil
}

// summary implements GENERATE-SUMMARY: result-set shape plus the query's
// surface filters.
func (e *Explainer) summary(b *strings.Builder, prov *provenance.Provenance) {
	r := prov.ResultSet
	b.WriteString("The query returns a result set with ")
	aggs := aggregateTypes(prov.Original)
	switch {
	case len(aggs) == len(r.Columns) && len(aggs) > 0:
		fmt.Fprintf(b, "%s of aggregation type (%s)", plural(len(r.Columns), "column"), strings.Join(aggs, ", "))
	case len(aggs) > 0:
		fmt.Fprintf(b, "%s (including aggregation type %s)", plural(len(r.Columns), "column"), strings.Join(aggs, ", "))
	default:
		fmt.Fprintf(b, "%s (%s)", plural(len(r.Columns), "column"), strings.Join(bareColumns(r.Columns), ", "))
	}
	fmt.Fprintf(b, " and %s", plural(r.NumRows(), "row"))
	if fs := allFilters(prov.Original); len(fs) != 0 {
		b.WriteString(", filtered by ")
		for i, f := range fs {
			if i > 0 {
				b.WriteString(" and ")
			}
			fmt.Fprintf(b, "%s %s %s", bareColumn(f.Column), opPhrase(f.Op), f.Value.String())
		}
	}
	b.WriteString(".")
}

// phraseStep implements GENERATE-PHRASE + the per-part portion of
// COMPOSE-PHRASE for one provenance part, verbalizing each label. Clauses
// come first, in provenance-column order and then label order; the tails
// follow: table-level labels in label order, then column-anchored
// aggregates in column order. prov is the in-flight provenance the part
// belongs to; it rides along so aggregate phrases can ground themselves in
// the to-explain result tuple.
func (e *Explainer) phraseStep(b *strings.Builder, prov *provenance.Provenance, part provenance.Part, labels []label) {
	core := part.Core
	subject := provgraph.DiscoverJoin(e.db.Schema, tableNames(core)).Phrase
	if subject == "" {
		subject = "the rows"
	}
	b.WriteString("For ")
	b.WriteString(subject)

	var cols []string
	var row sqltypes.Row
	if part.Table != nil {
		cols = part.Table.Columns
		if len(part.Table.Rows) > 0 {
			row = part.Table.Rows[0]
		}
	}
	phrases := 0
	// Filter-like labels on columns, grounded in provenance values.
	for ci, col := range cols {
		for i := range labels {
			if labels[i].col != ci {
				continue
			}
			if p := columnPhrase(&labels[i], col, row, ci); p != "" {
				b.WriteString(", ")
				b.WriteString(p)
				phrases++
			}
		}
	}
	// Table-level labels: aggregates, HAVING, ORDER/LIMIT, EXISTS, and
	// labels whose column is missing from the provenance.
	entity := headEntity(e.db, core)
	tails := 0
	tail := func(l *label) {
		if p := tablePhrase(prov, l, part, entity); p != "" {
			if tails == 0 {
				b.WriteString(", ")
			} else {
				b.WriteString(", and ")
			}
			b.WriteString(p)
			tails++
		}
	}
	for i := range labels {
		if labels[i].col < 0 {
			tail(&labels[i])
		}
	}
	// Aggregate labels anchored on a concrete column still summarize the
	// table (count(T2.language) counts rows of the group).
	for ci := range cols {
		for i := range labels {
			if labels[i].col == ci && labels[i].kind == kindAggregate {
				tail(&labels[i])
			}
		}
	}
	if phrases+tails == 0 {
		// Pure projection query: ground the representative row.
		if rep := representativeRow(part); rep != "" {
			b.WriteString(", ")
			b.WriteString(rep)
		}
	}
	b.WriteString(".")
}

// columnPhrase verbalizes one column-anchored label using the column's
// value in the representative provenance row, so the explanation reflects
// the data instance rather than the query surface alone.
func columnPhrase(l *label, col string, row sqltypes.Row, ci int) string {
	var val sqltypes.Value
	hasVal := ci < len(row)
	if hasVal {
		val = row[ci]
	}
	colNL := bareColumn(col)
	switch l.kind {
	case kindFilter:
		if l.subquery {
			return fmt.Sprintf("the %s is %s %s", colNL, opPhrase(l.op), l.value)
		}
		if hasVal && val.String() != l.value {
			// Data value differs from the filter constant (inequalities):
			// surface both, as in the paper's Estonia example.
			return fmt.Sprintf("the %s is %s, %s %s", colNL, val, opPhrase(l.op), l.value)
		}
		if l.op == "=" {
			return fmt.Sprintf("with %s %s", colNL, l.value)
		}
		return fmt.Sprintf("the %s is %s %s", colNL, opPhrase(l.op), l.value)
	case kindMembership:
		if l.not {
			return fmt.Sprintf("whose %s is not among %s", colNL, l.value)
		}
		return fmt.Sprintf("whose %s is among %s", colNL, l.value)
	case kindPattern:
		pat := strings.Trim(l.value, "'")
		verb := "matches"
		if l.not {
			verb = "does not match"
		}
		if hasVal {
			return fmt.Sprintf("the %s %s %s the pattern %s", colNL, val, verb, pat)
		}
		return fmt.Sprintf("the %s %s the pattern %s", colNL, verb, pat)
	case kindRange:
		return fmt.Sprintf("the %s is between %s and %s", colNL, l.lo, l.hi)
	case kindNullCheck:
		if l.not {
			return fmt.Sprintf("the %s is present", colNL)
		}
		return fmt.Sprintf("the %s is missing", colNL)
	case kindGroup:
		if hasVal {
			return fmt.Sprintf("grouped by %s, here %s %s", colNL, colNL, val)
		}
		return fmt.Sprintf("grouped by %s", colNL)
	case kindProjection:
		if hasVal {
			return fmt.Sprintf("the %s is %s", colNL, val)
		}
	}
	return ""
}

// tablePhrase verbalizes one label that describes the provenance table as
// a whole.
func tablePhrase(prov *provenance.Provenance, l *label, part provenance.Part, entity string) string {
	switch l.kind {
	case kindAggregate:
		resultVal := aggregateResultValue(prov, part, l)
		switch l.fn {
		case "count":
			noun := pluralNoun(entity)
			if l.arg != "*" && l.arg != "" && !isIDColumn(l.arg) {
				noun = pluralNoun(bareColumn(l.arg))
			}
			if l.distinct {
				return fmt.Sprintf("there are %s distinct %s in total", resultVal, noun)
			}
			return fmt.Sprintf("there are %s %s in total", resultVal, noun)
		case "sum":
			return fmt.Sprintf("the total %s is %s", bareColumn(l.arg), resultVal)
		case "avg":
			return fmt.Sprintf("the average %s is %s", bareColumn(l.arg), resultVal)
		case "min":
			return fmt.Sprintf("the smallest %s is %s", bareColumn(l.arg), resultVal)
		case "max":
			return fmt.Sprintf("the largest %s is %s", bareColumn(l.arg), resultVal)
		}
	case kindHaving:
		noun := pluralNoun(bareColumn(l.arg))
		if l.arg == "" {
			noun = "rows"
		}
		return fmt.Sprintf("keeping only groups where the %s of %s is %s %s", l.fn, noun, opPhrase(l.op), l.rhs)
	case kindOrder:
		dir := "ascending"
		if l.desc {
			dir = "descending"
		}
		if l.limit != nil {
			return fmt.Sprintf("ranked by %s %s taking the top %s", bareColumn(l.key), dir, strconv.FormatInt(*l.limit, 10))
		}
		return fmt.Sprintf("ordered by %s %s", bareColumn(l.key), dir)
	case kindExists:
		if l.not {
			return fmt.Sprintf("with no matching %s", l.value)
		}
		return fmt.Sprintf("with some matching %s", l.value)
	case kindDistinct:
		return "with duplicate entries removed"
	case kindFilter, kindMembership, kindPattern:
		// A filter whose column is missing from the provenance table (for
		// example the rewrite dropped it): verbalize from the query
		// surface. Only comparisons carry an operator, and a LIKE's
		// pattern is not repeated here.
		op, value := l.op, l.value
		if op == "" {
			op = "="
		}
		if l.kind == kindPattern {
			value = ""
		}
		return fmt.Sprintf("where %s is %s %s", bareColumn(l.column), opPhrase(op), value)
	}
	return ""
}

// aggregateResultValue resolves the concrete value of an aggregate label:
// the matching column of the to-explain result tuple when identifiable,
// else the recomputed aggregate over the provenance rows.
func aggregateResultValue(prov *provenance.Provenance, part provenance.Part, l *label) string {
	if res := lookupResultAggregate(prov, part.Core, l.fn, l.arg); res != "" {
		return res
	}
	if part.Table != nil && l.fn == "count" {
		return strconv.Itoa(part.Table.NumRows())
	}
	return "the computed value"
}

// lookupResultAggregate aligns an aggregate label with the to-explain
// result tuple the Provenance carries, returning the concrete value of the
// matching projection column (or "" when no item aligns).
func lookupResultAggregate(prov *provenance.Provenance, core *sqlast.SelectCore, fn, arg string) string {
	if prov == nil || len(prov.Result) == 0 {
		return ""
	}
	for i, it := range core.Items {
		f, ok := it.Expr.(*sqlast.FuncCall)
		if !ok || !f.IsAggregate() {
			continue
		}
		gotArg := "*"
		if !f.Star && len(f.Args) == 1 {
			gotArg = sqlast.ExprSQL(f.Args[0])
		}
		if strings.EqualFold(f.Name, fn) && (gotArg == arg || arg == "") {
			if i < len(prov.Result) {
				return prov.Result[i].String()
			}
		}
	}
	return ""
}

// operationStep verbalizes a core from its query surface alone; used for
// empty-result queries that carry no data-level provenance.
func (e *Explainer) operationStep(b *strings.Builder, core *sqlast.SelectCore) {
	join := provgraph.DiscoverJoin(e.db.Schema, tableNames(core))
	b.WriteString("No data matches: the query looks for ")
	b.WriteString(describeItems(core))
	if join.Phrase != "" {
		b.WriteString(" of ")
		b.WriteString(join.Phrase)
	}
	if fs := provenance.Filters(core); len(fs) > 0 {
		b.WriteString(" where ")
		for i, f := range fs {
			if i > 0 {
				b.WriteString(" and ")
			}
			fmt.Fprintf(b, "%s is %s %s", bareColumn(f.Column.Column), opPhrase(f.Op), f.Value.String())
		}
	}
	b.WriteString(", and no such rows exist.")
}

// tableNames lists the named base tables a core references, in FROM order.
func tableNames(core *sqlast.SelectCore) []string {
	var names []string
	for _, t := range core.Tables() {
		if t.Name != "" {
			names = append(names, t.Name)
		}
	}
	return names
}
