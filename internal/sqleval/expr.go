package sqleval

import (
	"fmt"
	"math"
	"strings"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqltypes"
)

// compileExpr lowers an expression into a closure evaluated against a row
// context. Column references are resolved to frame coordinates here, once
// per statement; the closures never touch names again. SQL tri-state logic
// is represented with NULL as the unknown truth value, exactly as in the
// legacy interpreter.
func (c *compiler) compileExpr(e sqlast.Expr, sc *scope) (compiledExpr, error) {
	switch x := e.(type) {
	case *sqlast.Literal:
		v := x.Value
		return func(*rowCtx) (sqltypes.Value, error) { return v, nil }, nil
	case *sqlast.ColumnRef:
		if x.Column == "*" {
			return nil, fmt.Errorf("sqleval: bare * outside COUNT")
		}
		depth, idx, ok := sc.resolve(x.Table, x.Column)
		if !ok {
			return nil, fmt.Errorf("sqleval: unknown column %s", sqlast.ExprSQL(x))
		}
		if len(c.open) > 0 {
			b := sc
			for d := depth; d > 0; d-- {
				b = b.parent
			}
			c.noteBinding(b)
		}
		return columnAt(depth, idx), nil
	case *sqlast.Unary:
		fn, err := c.compileExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return func(ctx *rowCtx) (sqltypes.Value, error) {
				v, err := fn(ctx)
				if err != nil || v.IsNull() {
					return sqltypes.Null(), err
				}
				return sqltypes.NewBool(!v.Truthy()), nil
			}, nil
		}
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			v, err := fn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			f, ok := v.AsFloat()
			if !ok {
				return sqltypes.Null(), nil
			}
			if v.Kind() == sqltypes.KindInt {
				return sqltypes.NewInt(-v.Int()), nil
			}
			return sqltypes.NewFloat(-f), nil
		}, nil
	case *sqlast.Binary:
		return c.compileBinary(x, sc)
	case *sqlast.FuncCall:
		return c.compileFunc(x, sc)
	case *sqlast.InExpr:
		return c.compileIn(x, sc)
	case *sqlast.LikeExpr:
		xfn, err := c.compileExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		pfn, err := c.compileExpr(x.Pattern, sc)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			v, err := xfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			p, err := pfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if v.IsNull() || p.IsNull() {
				return sqltypes.Null(), nil
			}
			m := likeMatch(strings.ToLower(v.String()), strings.ToLower(p.String()))
			return sqltypes.NewBool(m != not), nil
		}, nil
	case *sqlast.BetweenExpr:
		xfn, err := c.compileExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		lofn, err := c.compileExpr(x.Lo, sc)
		if err != nil {
			return nil, err
		}
		hifn, err := c.compileExpr(x.Hi, sc)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			v, err := xfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			lo, err := lofn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			hi, err := hifn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if v.IsNull() || lo.IsNull() || hi.IsNull() {
				return sqltypes.Null(), nil
			}
			in := sqltypes.Compare(v, lo) >= 0 && sqltypes.Compare(v, hi) <= 0
			return sqltypes.NewBool(in != not), nil
		}, nil
	case *sqlast.IsNullExpr:
		fn, err := c.compileExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			v, err := fn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return sqltypes.NewBool(v.IsNull() != not), nil
		}, nil
	case *sqlast.ExistsExpr:
		run, err := c.compileSubquery(x, x.Sub, sc)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			rel, _, err := run(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return sqltypes.NewBool((rel.NumRows() > 0) != not), nil
		}, nil
	case *sqlast.SubqueryExpr:
		run, err := c.compileSubquery(x, x.Sub, sc)
		if err != nil {
			return nil, err
		}
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			rel, _, err := run(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if rel.NumRows() == 0 || rel.NumCols() == 0 {
				return sqltypes.Null(), nil
			}
			return rel.Rows[0][0], nil
		}, nil
	case nil:
		return nil, fmt.Errorf("sqleval: nil expression")
	default:
		return nil, fmt.Errorf("sqleval: unsupported expression %T", e)
	}
}

func (c *compiler) compileBinary(x *sqlast.Binary, sc *scope) (compiledExpr, error) {
	lfn, err := c.compileExpr(x.L, sc)
	if err != nil {
		return nil, err
	}
	rfn, err := c.compileExpr(x.R, sc)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "AND":
		// Kleene three-valued logic with short-circuiting on the
		// determining value.
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			l, err := lfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if !l.IsNull() && !l.Truthy() {
				return sqltypes.NewBool(false), nil
			}
			r, err := rfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if !r.IsNull() && !r.Truthy() {
				return sqltypes.NewBool(false), nil
			}
			if l.IsNull() || r.IsNull() {
				return sqltypes.Null(), nil
			}
			return sqltypes.NewBool(true), nil
		}, nil
	case "OR":
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			l, err := lfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if l.Truthy() {
				return sqltypes.NewBool(true), nil
			}
			r, err := rfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if r.Truthy() {
				return sqltypes.NewBool(true), nil
			}
			if l.IsNull() || r.IsNull() {
				return sqltypes.Null(), nil
			}
			return sqltypes.NewBool(false), nil
		}, nil
	case "=", "!=", "<>", "<", "<=", ">", ">=":
		var test func(int) bool
		switch x.Op {
		case "=":
			test = func(c int) bool { return c == 0 }
		case "!=", "<>":
			test = func(c int) bool { return c != 0 }
		case "<":
			test = func(c int) bool { return c < 0 }
		case "<=":
			test = func(c int) bool { return c <= 0 }
		case ">":
			test = func(c int) bool { return c > 0 }
		default:
			test = func(c int) bool { return c >= 0 }
		}
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			l, err := lfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			r, err := rfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if l.IsNull() || r.IsNull() {
				return sqltypes.Null(), nil
			}
			return sqltypes.NewBool(test(sqltypes.Compare(l, r))), nil
		}, nil
	case "+", "-", "*", "/", "%":
		op := x.Op
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			l, err := lfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			r, err := rfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return arith(op, l, r), nil
		}, nil
	default:
		return nil, fmt.Errorf("sqleval: unknown operator %q", x.Op)
	}
}

func arith(op string, l, r sqltypes.Value) sqltypes.Value {
	if l.IsNull() || r.IsNull() {
		return sqltypes.Null()
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return sqltypes.Null()
	}
	bothInt := l.Kind() == sqltypes.KindInt && r.Kind() == sqltypes.KindInt
	switch op {
	case "+":
		if bothInt {
			return sqltypes.NewInt(l.Int() + r.Int())
		}
		return sqltypes.NewFloat(lf + rf)
	case "-":
		if bothInt {
			return sqltypes.NewInt(l.Int() - r.Int())
		}
		return sqltypes.NewFloat(lf - rf)
	case "*":
		if bothInt {
			return sqltypes.NewInt(l.Int() * r.Int())
		}
		return sqltypes.NewFloat(lf * rf)
	case "/":
		if rf == 0 {
			return sqltypes.Null()
		}
		if bothInt {
			return sqltypes.NewInt(l.Int() / r.Int())
		}
		return sqltypes.NewFloat(lf / rf)
	case "%":
		if rf == 0 {
			return sqltypes.Null()
		}
		if bothInt {
			return sqltypes.NewInt(l.Int() % r.Int())
		}
		return sqltypes.NewFloat(math.Mod(lf, rf))
	}
	return sqltypes.Null()
}

// subRun evaluates an expression subquery under one row context. It
// returns the subquery's result and, for an uncorrelated subquery, the
// memo slot holding it; a correlated subquery re-runs on every call and
// reports a nil slot.
type subRun func(ctx *rowCtx) (*sqltypes.Relation, *memoSlot, error)

// compileSubquery compiles the statement of expression subquery e against
// the scope sc of the core e appears in, and classifies it. A subquery is
// correlated when some column reference inside it, at any nesting, binds
// to sc or a scope enclosing sc (see noteBinding) — by the scope a
// reference binds to, not by nesting depth: a derived table compiles
// against its enclosing core's parent scope, so the two depths disagree
// there. A correlated subquery re-runs per outer row, under that row as
// its outer context. An uncorrelated one runs lazily, on first use, once
// per top-level execution, under the execution's root context, and its
// result stays in the execution's memo; an empty outer input still never
// runs it, and its errors surface at that first use, as before.
func (c *compiler) compileSubquery(e sqlast.Expr, stmt *sqlast.SelectStmt, sc *scope) (subRun, error) {
	f := &subFrame{sc: sc}
	c.open = append(c.open, f)
	sub, err := c.compileStmt(stmt, sc)
	c.open = c.open[:len(c.open)-1]
	if err != nil {
		return nil, err
	}
	ex := c.ex
	if f.correlated {
		return func(ctx *rowCtx) (*sqltypes.Relation, *memoSlot, error) {
			rel, err := ex.runProgram(ctx.qctx, sub, ctx, ctx.depth+1)
			return rel, nil, err
		}, nil
	}
	slot := len(c.memoized)
	c.memoized = append(c.memoized, e)
	return func(ctx *rowCtx) (*sqltypes.Relation, *memoSlot, error) {
		root := ctx
		for root.parent != nil {
			root = root.parent
		}
		m := &root.memo[slot]
		if m.rel == nil {
			rel, err := ex.runProgram(ctx.qctx, sub, root, ctx.depth+1)
			if err != nil {
				return nil, nil, err
			}
			m.rel = rel
		}
		return m.rel, m, nil
	}, nil
}

func (c *compiler) compileIn(x *sqlast.InExpr, sc *scope) (compiledExpr, error) {
	xfn, err := c.compileExpr(x.X, sc)
	if err != nil {
		return nil, err
	}
	not := x.Not
	if x.Sub != nil {
		run, err := c.compileSubquery(x, x.Sub, sc)
		if err != nil {
			return nil, err
		}
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			v, err := xfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			rel, m, err := run(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if m == nil {
				return membership(v, firstColumn(rel), not), nil
			}
			if m.in == nil {
				m.in = newMemberSet(firstColumn(rel))
			}
			return m.in.membership(v, not), nil
		}, nil
	}
	if consts, ok := literalValues(x.List); ok {
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			v, err := xfn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			return membership(v, consts, not), nil
		}, nil
	}
	var memberFns []compiledExpr
	for _, le := range x.List {
		fn, err := c.compileExpr(le, sc)
		if err != nil {
			return nil, err
		}
		memberFns = append(memberFns, fn)
	}
	return func(ctx *rowCtx) (sqltypes.Value, error) {
		v, err := xfn(ctx)
		if err != nil {
			return sqltypes.Value{}, err
		}
		members := make([]sqltypes.Value, len(memberFns))
		for i, fn := range memberFns {
			if members[i], err = fn(ctx); err != nil {
				return sqltypes.Value{}, err
			}
		}
		return membership(v, members, not), nil
	}, nil
}

// firstColumn returns the first value of each row of rel: the members of
// an IN subquery.
func firstColumn(rel *sqltypes.Relation) []sqltypes.Value {
	vals := make([]sqltypes.Value, 0, len(rel.Rows))
	for _, row := range rel.Rows {
		if len(row) > 0 {
			vals = append(vals, row[0])
		}
	}
	return vals
}

// literalValues returns the values of an IN list whose members are all
// literals, so the list is built once at compile time instead of per row.
func literalValues(list []sqlast.Expr) ([]sqltypes.Value, bool) {
	vals := make([]sqltypes.Value, len(list))
	for i, e := range list {
		lit, ok := e.(*sqlast.Literal)
		if !ok {
			return nil, false
		}
		vals[i] = lit.Value
	}
	return vals, true
}

// membership is IN's tri-state result for probe v over members (NOT IN
// when not is set): NULL for a NULL probe, and NULL for a miss when some
// member is NULL.
func membership(v sqltypes.Value, members []sqltypes.Value, not bool) sqltypes.Value {
	if v.IsNull() {
		return sqltypes.Null()
	}
	found := false
	sawNull := false
	for _, m := range members {
		if m.IsNull() {
			sawNull = true
			continue
		}
		if sqltypes.Compare(v, m) == 0 {
			found = true
			break
		}
	}
	if !found && sawNull {
		return sqltypes.Null()
	}
	return sqltypes.NewBool(found != not)
}

// memberSet is the member list of an uncorrelated IN subquery, hashed by
// sqltypes.AppendCompareKey — under which two values encode identically
// exactly when Compare orders them equal — so a probe is one map lookup
// instead of a scan. Compare also finds NaN equal to every number, which
// no encoding mirrors, so a NaN probe or a set holding a NaN falls back to
// the linear scan. A set belongs to one execution, so its key scratch
// buffer needs no lock.
type memberSet struct {
	members []sqltypes.Value
	keys    map[string]struct{}
	sawNull bool
	nan     bool
	buf     []byte
}

func newMemberSet(members []sqltypes.Value) *memberSet {
	s := &memberSet{members: members, keys: make(map[string]struct{}, len(members))}
	for _, v := range members {
		s.nan = s.nan || isNaN(v)
		key, ok := v.AppendCompareKey(s.buf[:0])
		if !ok {
			s.sawNull = true
			continue
		}
		s.buf = key
		s.keys[string(key)] = struct{}{}
	}
	return s
}

// membership is the hashed equivalent of the package-level membership
// over s.members.
func (s *memberSet) membership(v sqltypes.Value, not bool) sqltypes.Value {
	if s.nan || isNaN(v) {
		return membership(v, s.members, not)
	}
	key, ok := v.AppendCompareKey(s.buf[:0])
	if !ok {
		return sqltypes.Null()
	}
	s.buf = key
	_, found := s.keys[string(key)]
	if !found && s.sawNull {
		return sqltypes.Null()
	}
	return sqltypes.NewBool(found != not)
}

func isNaN(v sqltypes.Value) bool {
	return v.Kind() == sqltypes.KindFloat && math.IsNaN(v.Float())
}

func (c *compiler) compileFunc(x *sqlast.FuncCall, sc *scope) (compiledExpr, error) {
	if x.IsAggregate() {
		return c.compileAggregate(x, sc)
	}
	switch x.Name {
	case "ABS":
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("sqleval: ABS expects 1 argument")
		}
		fn, err := c.compileExpr(x.Args[0], sc)
		if err != nil {
			return nil, err
		}
		return func(ctx *rowCtx) (sqltypes.Value, error) {
			v, err := fn(ctx)
			if err != nil {
				return sqltypes.Value{}, err
			}
			if v.IsNull() {
				return sqltypes.Null(), nil
			}
			if v.Kind() == sqltypes.KindInt {
				if v.Int() < 0 {
					return sqltypes.NewInt(-v.Int()), nil
				}
				return v, nil
			}
			f, ok := v.AsFloat()
			if !ok {
				return sqltypes.Null(), nil
			}
			return sqltypes.NewFloat(math.Abs(f)), nil
		}, nil
	default:
		return nil, fmt.Errorf("sqleval: unknown function %s", x.Name)
	}
}

// likeMatch implements SQL LIKE with % and _ wildcards (case folded by the
// caller, matching SQLite's ASCII-insensitive default).
func likeMatch(s, pattern string) bool {
	// Dynamic-programming match over bytes; patterns are short.
	m, n := len(s), len(pattern)
	dp := make([]bool, m+1)
	dp[0] = true
	for j := 1; j <= n; j++ {
		prevDiag := dp[0]
		dp[0] = dp[0] && pattern[j-1] == '%'
		for i := 1; i <= m; i++ {
			cur := dp[i]
			switch pattern[j-1] {
			case '%':
				dp[i] = dp[i] || dp[i-1]
			case '_':
				dp[i] = prevDiag
			default:
				dp[i] = prevDiag && s[i-1] == pattern[j-1]
			}
			prevDiag = cur
		}
	}
	return dp[m]
}
