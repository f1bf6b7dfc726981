package sqleval

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cyclesql/internal/sqltypes"
)

// foldAggregate is the reference oracle the accumulators are held to: the
// row-list aggregation the executor ran before accumulators, which
// collected a group's values — NULLs dropped, DISTINCT deduplicated by
// Value.AppendKey — and folded the whole list at once.
func foldAggregate(name string, distinct bool, group []sqltypes.Value) (sqltypes.Value, error) {
	var vals []sqltypes.Value
	seen := make(map[string]struct{})
	var buf []byte
	for _, v := range group {
		if v.IsNull() {
			continue
		}
		if distinct {
			buf = v.AppendKey(buf[:0])
			if _, dup := seen[string(buf)]; dup {
				continue
			}
			seen[string(buf)] = struct{}{}
		}
		vals = append(vals, v)
	}
	switch name {
	case "COUNT":
		return sqltypes.NewInt(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return sqltypes.Null(), nil
		}
		sum := 0.0
		allInt := true
		for _, v := range vals {
			f, ok := v.AsFloat()
			if !ok {
				return sqltypes.Null(), nil
			}
			if v.Kind() != sqltypes.KindInt {
				allInt = false
			}
			sum += f
		}
		if name == "SUM" {
			if allInt {
				return sqltypes.NewInt(int64(sum)), nil
			}
			return sqltypes.NewFloat(sum), nil
		}
		return sqltypes.NewFloat(sum / float64(len(vals))), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return sqltypes.Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := sqltypes.Compare(v, best)
			if (name == "MIN" && c < 0) || (name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return sqltypes.Value{}, fmt.Errorf("sqleval: unknown aggregate %s", name)
}

// identicalValue reports whether two values are bit-identical: same kind
// and, for floats, the same IEEE-754 bits (so NaN matches NaN and 0
// differs from -0).
func identicalValue(a, b sqltypes.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case sqltypes.KindInt:
		return a.Int() == b.Int()
	case sqltypes.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case sqltypes.KindText:
		return a.Text() == b.Text()
	}
	return true
}

// TestAccumulatorsMatchFoldOracle folds random groups of mixed INTEGER,
// REAL (NaN, ±0 and non-integral values included), TEXT and NULL values
// through the accumulators, one row at a time, and requires results
// bit-identical to the fold oracle for all five aggregates, with and
// without DISTINCT.
func TestAccumulatorsMatchFoldOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	value := func() sqltypes.Value {
		switch rng.Intn(9) {
		case 0:
			return sqltypes.Null()
		case 1:
			return sqltypes.NewFloat(math.NaN())
		case 2:
			return sqltypes.NewFloat(float64(rng.Intn(7)-3) / 2)
		case 3:
			return sqltypes.NewFloat(rng.NormFloat64() * 1e6)
		case 4:
			return sqltypes.NewFloat(math.Copysign(0, -1))
		case 5:
			return sqltypes.NewText(fmt.Sprint("t", rng.Intn(4)))
		case 6:
			return sqltypes.NewInt(int64(rng.Intn(1 << 20)))
		default:
			return sqltypes.NewInt(int64(rng.Intn(9) - 4))
		}
	}
	names := []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}
	for trial := 0; trial < 3000; trial++ {
		group := make([]sqltypes.Value, rng.Intn(12))
		textFree := rng.Intn(2) == 0
		for i := range group {
			group[i] = value()
			for textFree && group[i].Kind() == sqltypes.KindText {
				group[i] = value()
			}
		}
		rc := &rowCtx{row: make(sqltypes.Row, 1)}
		for _, name := range names {
			for _, distinct := range []bool{false, true} {
				spec := aggSpec{kind: aggKinds[name], distinct: distinct,
					arg: func(ctx *rowCtx) (sqltypes.Value, error) { return ctx.row[0], nil }}
				var st aggState
				var buf []byte
				for _, v := range group {
					rc.row[0] = v
					buf = st.add(&spec, rc, buf)
				}
				got, err := st.result(spec.kind)
				if err != nil {
					t.Fatal(err)
				}
				want, err := foldAggregate(name, distinct, group)
				if err != nil {
					t.Fatal(err)
				}
				if !identicalValue(got, want) {
					t.Fatalf("%s(distinct=%v) over %v: accumulator %v (%v), oracle %v (%v)",
						name, distinct, group, got, got.Kind(), want, want.Kind())
				}
			}
		}
		// COUNT(*) counts rows, NULLs included.
		var st aggState
		star := aggSpec{kind: aggCount, star: true}
		for range group {
			st.add(&star, rc, nil)
		}
		if got, _ := st.result(aggCount); got.Int() != int64(len(group)) {
			t.Fatalf("COUNT(*) over %d rows = %v", len(group), got)
		}
	}
}

// TestAccumulatorDefersArgumentErrors pins that an argument error is kept
// and reported when the aggregate is read, and stops the fold.
func TestAccumulatorDefersArgumentErrors(t *testing.T) {
	calls := 0
	spec := aggSpec{kind: aggSum, arg: func(*rowCtx) (sqltypes.Value, error) {
		calls++
		return sqltypes.Value{}, fmt.Errorf("boom %d", calls)
	}}
	var st aggState
	for range 3 {
		st.add(&spec, &rowCtx{}, nil)
	}
	if _, err := st.result(aggSum); err == nil || err.Error() != "boom 1" {
		t.Fatalf("result error = %v, want the first argument error", err)
	}
	if calls != 1 {
		t.Fatalf("argument evaluated %d times after failing, want 1", calls)
	}
}
