package sqleval

import (
	"sort"

	"cyclesql/internal/sqltypes"
)

// projection collects a core's output rows: the projected items of every
// row (plain cores) or group (grouped cores) that reaches it, plus — only
// when some ORDER BY key is not a projected column — the evaluated sort
// keys, parallel to rows.
type projection struct {
	rows []sqltypes.Row
	keys []sqltypes.Row
}

// add evaluates the projection items and the evaluated ORDER BY keys
// against the current row (or group) of rc.
func (p *projection) add(cc *compiledCore, rc *rowCtx) error {
	proj := make(sqltypes.Row, len(cc.items))
	for i, it := range cc.items {
		v, err := it.fn(rc)
		if err != nil {
			return err
		}
		proj[i] = v
	}
	if cc.evalKeys {
		keys := make(sqltypes.Row, len(cc.orderKeys))
		for i, ok := range cc.orderKeys {
			if ok.projIdx >= 0 {
				continue
			}
			v, err := ok.fn(rc)
			if err != nil {
				return err
			}
			keys[i] = v
		}
		p.keys = append(p.keys, keys)
	}
	p.rows = append(p.rows, proj)
	return nil
}

// key is the k-th ORDER BY key of output row i.
func (p *projection) key(cc *compiledCore, i, k int) sqltypes.Value {
	if idx := cc.orderKeys[k].projIdx; idx >= 0 {
		return p.rows[i][idx]
	}
	return p.keys[i][k]
}

// ordering sorts a projection by its core's ORDER BY keys.
type ordering struct {
	p  *projection
	cc *compiledCore
}

func (o ordering) Len() int { return len(o.p.rows) }

func (o ordering) Less(i, j int) bool {
	for k, key := range o.cc.orderKeys {
		c := sqltypes.Compare(o.p.key(o.cc, i, k), o.p.key(o.cc, j, k))
		if c == 0 {
			continue
		}
		if key.desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

func (o ordering) Swap(i, j int) {
	rows := o.p.rows
	rows[i], rows[j] = rows[j], rows[i]
	if keys := o.p.keys; keys != nil {
		keys[i], keys[j] = keys[j], keys[i]
	}
}

// finish applies DISTINCT, ORDER BY (a stable sort) and LIMIT/OFFSET and
// returns the output relation.
func (p *projection) finish(cc *compiledCore) *sqltypes.Relation {
	core := cc.core
	if core.Distinct {
		seen := make(map[string]struct{}, len(p.rows))
		kept := 0
		var buf []byte
		for i, row := range p.rows {
			buf = row.AppendKey(buf[:0])
			if _, dup := seen[string(buf)]; dup {
				continue
			}
			seen[string(buf)] = struct{}{}
			p.rows[kept] = row
			if p.keys != nil {
				p.keys[kept] = p.keys[i]
			}
			kept++
		}
		p.rows = p.rows[:kept]
		if p.keys != nil {
			p.keys = p.keys[:kept]
		}
	}
	if len(cc.orderKeys) > 0 {
		sort.Stable(ordering{p: p, cc: cc})
	}
	// LIMIT and OFFSET are non-negative but may be huge: clamp each to the
	// rows that remain instead of adding them.
	n := int64(len(p.rows))
	start, end := int64(0), n
	if core.Offset != nil {
		start = min(*core.Offset, n)
	}
	if core.Limit != nil {
		end = start + min(*core.Limit, n-start)
	}
	out := sqltypes.NewRelation(cc.cols...)
	if start == 0 && end == n && p.rows != nil {
		out.Rows = p.rows
	} else {
		// A window keeps only its own rows reachable.
		out.Rows = make([]sqltypes.Row, end-start)
		copy(out.Rows, p.rows[start:end])
	}
	return out
}
