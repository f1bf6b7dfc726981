package sqleval

import (
	"fmt"

	"cyclesql/internal/sqlast"
	"cyclesql/internal/sqltypes"
)

// This file implements grouped aggregation as a one-pass hash aggregate:
// every row that survives a grouped core's filters is routed to its group
// and folded into one accumulator per aggregate call, so no group keeps
// its rows and no aggregate rebuilds a value list to fold.

// aggKind is one of the five SQL aggregates.
type aggKind uint8

const (
	aggCount aggKind = iota
	aggSum
	aggAvg
	aggMin
	aggMax
)

var aggKinds = map[string]aggKind{
	"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "MIN": aggMin, "MAX": aggMax,
}

// aggSpec is one compiled aggregate call of a grouped core: COUNT(*) when
// star is set, else the aggregate of arg over the group's rows, with
// DISTINCT dropping repeated values.
type aggSpec struct {
	kind     aggKind
	star     bool
	distinct bool
	arg      compiledExpr
}

// compileAggregate lowers an aggregate call. Inside a grouped core's
// items, HAVING or ORDER BY it reads the current group's accumulator;
// anywhere else — WHERE, ON, GROUP BY, another aggregate's argument, or a
// core that does not group — it fails when evaluated, the runtime error
// the engine has always reported there. The argument compiles either way,
// so compile errors and subquery classification do not depend on where
// the call appears.
func (c *compiler) compileAggregate(x *sqlast.FuncCall, sc *scope) (compiledExpr, error) {
	name := x.Name
	spec := aggSpec{kind: aggKinds[name], star: x.Star, distinct: x.Distinct}
	if x.Star {
		if name != "COUNT" {
			return nil, fmt.Errorf("sqleval: %s(*) is not valid", name)
		}
	} else {
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("sqleval: aggregate %s expects 1 argument", name)
		}
		scope := c.aggs
		c.aggs = nil
		arg, err := c.compileExpr(x.Args[0], sc)
		c.aggs = scope
		if err != nil {
			return nil, err
		}
		spec.arg = arg
	}
	if c.aggs == nil {
		return func(*rowCtx) (sqltypes.Value, error) {
			return sqltypes.Value{}, fmt.Errorf("sqleval: aggregate %s outside grouped context", name)
		}, nil
	}
	slot, kind := len(*c.aggs), spec.kind
	*c.aggs = append(*c.aggs, spec)
	return func(ctx *rowCtx) (sqltypes.Value, error) {
		return ctx.grp[slot].result(kind)
	}, nil
}

// aggState accumulates one aggregate over one group. n counts the rows
// (COUNT(*)) or the non-NULL values folded (after DISTINCT); SUM and AVG
// add in float64 in input order and remember whether every input was an
// integer, and a non-numeric input makes them NULL; MIN and MAX keep the
// first value on Compare ties. An argument that fails to evaluate is kept
// and reported when the aggregate is read, never earlier: a group whose
// aggregate is never read never fails on it.
type aggState struct {
	n      int64
	sum    float64
	best   sqltypes.Value
	nonInt bool
	bad    bool
	err    error
	seen   map[string]struct{}
}

// add folds the current row of rc into the state. buf is DISTINCT's key
// scratch, returned for reuse.
func (s *aggState) add(a *aggSpec, rc *rowCtx, buf []byte) []byte {
	if a.star {
		s.n++
		return buf
	}
	if s.err != nil {
		return buf
	}
	v, err := a.arg(rc)
	if err != nil {
		s.err = err
		return buf
	}
	if v.IsNull() {
		return buf
	}
	if a.distinct {
		buf = v.AppendKey(buf[:0])
		if _, dup := s.seen[string(buf)]; dup {
			return buf
		}
		if s.seen == nil {
			s.seen = make(map[string]struct{})
		}
		s.seen[string(buf)] = struct{}{}
	}
	s.n++
	switch a.kind {
	case aggSum, aggAvg:
		if s.bad {
			return buf
		}
		f, ok := v.AsFloat()
		if !ok {
			s.bad = true
			return buf
		}
		if v.Kind() != sqltypes.KindInt {
			s.nonInt = true
		}
		s.sum += f
	case aggMin, aggMax:
		if s.n == 1 {
			s.best = v
			return buf
		}
		c := sqltypes.Compare(v, s.best)
		if (a.kind == aggMin && c < 0) || (a.kind == aggMax && c > 0) {
			s.best = v
		}
	}
	return buf
}

// result is the aggregate's value over everything folded so far.
func (s *aggState) result(kind aggKind) (sqltypes.Value, error) {
	if s.err != nil {
		return sqltypes.Value{}, s.err
	}
	switch kind {
	case aggCount:
		return sqltypes.NewInt(s.n), nil
	case aggSum:
		if s.n == 0 || s.bad {
			return sqltypes.Null(), nil
		}
		if !s.nonInt {
			return sqltypes.NewInt(int64(s.sum)), nil
		}
		return sqltypes.NewFloat(s.sum), nil
	case aggAvg:
		if s.n == 0 || s.bad {
			return sqltypes.Null(), nil
		}
		return sqltypes.NewFloat(s.sum / float64(s.n)), nil
	default:
		if s.n == 0 {
			return sqltypes.Null(), nil
		}
		return s.best, nil
	}
}

// hashAgg is the grouped sink of a core's pipeline. Groups are numbered
// in order of first appearance; group g's first row (what non-aggregate
// items and correlated subqueries read) is firsts[g*width:(g+1)*width],
// copied because the frame it arrived in is reused, and its accumulators
// are states[g*len(specs):(g+1)*len(specs)].
type hashAgg struct {
	cc     *compiledCore
	index  map[string]int // group key → group number; nil without GROUP BY
	firsts []sqltypes.Value
	states []aggState
	groups int
	key    []byte
	arg    []byte
}

func newHashAgg(cc *compiledCore) *hashAgg {
	h := &hashAgg{cc: cc}
	if len(cc.groupBy) > 0 {
		h.index = make(map[string]int)
	}
	return h
}

// add routes the current row of rc to its group and folds it into the
// group's accumulators.
func (h *hashAgg) add(rc *rowCtx) error {
	g := 0
	if h.index != nil {
		h.key = h.key[:0]
		for _, fn := range h.cc.groupBy {
			v, err := fn(rc)
			if err != nil {
				return err
			}
			h.key = v.AppendKey(h.key)
		}
		var ok bool
		if g, ok = h.index[string(h.key)]; !ok {
			g = h.newGroup(rc.row)
			h.index[string(h.key)] = g
		}
	} else if h.groups == 0 {
		h.newGroup(rc.row)
	}
	specs := h.cc.aggs
	states := h.states[g*len(specs):]
	for i := range specs {
		h.arg = states[i].add(&specs[i], rc, h.arg)
	}
	return nil
}

func (h *hashAgg) newGroup(row sqltypes.Row) int {
	h.firsts = append(h.firsts, row...)
	for range h.cc.aggs {
		h.states = append(h.states, aggState{})
	}
	h.groups++
	return h.groups - 1
}

// emit evaluates HAVING and the projection once per group, in order of
// first appearance, into out. Without GROUP BY an empty input still forms
// one group, over an all-NULL row.
func (h *hashAgg) emit(rc *rowCtx, out *projection) error {
	cc := h.cc
	cancel := cancelCheck{ctx: rc.qctx}
	if h.groups == 0 && h.index == nil {
		h.newGroup(make(sqltypes.Row, cc.width))
	}
	w, n := cc.width, len(cc.aggs)
	for g := 0; g < h.groups; g++ {
		if err := cancel.poll(); err != nil {
			return err
		}
		rc.row = h.firsts[g*w : (g+1)*w : (g+1)*w]
		rc.grp = h.states[g*n : (g+1)*n : (g+1)*n]
		if cc.having != nil {
			v, err := cc.having(rc)
			if err != nil {
				return err
			}
			if !v.Truthy() {
				continue
			}
		}
		if err := out.add(cc, rc); err != nil {
			return err
		}
	}
	return nil
}
