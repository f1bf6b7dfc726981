package sqlast

// Clone deep-copies the statement. Rewriters (provenance rules, the
// corruption engine) clone before mutating so candidate lists and cached
// gold queries stay intact.
func (s *SelectStmt) Clone() *SelectStmt {
	if s == nil {
		return nil
	}
	out := &SelectStmt{
		Cores: make([]*SelectCore, len(s.Cores)),
		Ops:   append([]CompoundOp(nil), s.Ops...),
	}
	for i, c := range s.Cores {
		out.Cores[i] = c.Clone()
	}
	return out
}

// Clone deep-copies a core.
func (c *SelectCore) Clone() *SelectCore {
	if c == nil {
		return nil
	}
	out := &SelectCore{Distinct: c.Distinct}
	for _, it := range c.Items {
		out.Items = append(out.Items, SelectItem{
			Expr:      CloneExpr(it.Expr),
			Alias:     it.Alias,
			Star:      it.Star,
			TableStar: it.TableStar,
		})
	}
	if c.From != nil {
		from := &FromClause{Base: c.From.Base.clone()}
		for _, j := range c.From.Joins {
			from.Joins = append(from.Joins, Join{Type: j.Type, Table: j.Table.clone(), On: CloneExpr(j.On)})
		}
		out.From = from
	}
	out.Where = CloneExpr(c.Where)
	for _, g := range c.GroupBy {
		out.GroupBy = append(out.GroupBy, CloneExpr(g))
	}
	out.Having = CloneExpr(c.Having)
	for _, o := range c.OrderBy {
		out.OrderBy = append(out.OrderBy, OrderItem{Expr: CloneExpr(o.Expr), Desc: o.Desc})
	}
	if c.Limit != nil {
		v := *c.Limit
		out.Limit = &v
	}
	if c.Offset != nil {
		v := *c.Offset
		out.Offset = &v
	}
	return out
}

func (t TableRef) clone() TableRef {
	return TableRef{Name: t.Name, Alias: t.Alias, Sub: t.Sub.Clone()}
}

// CloneExpr deep-copies an expression tree (nil-safe).
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *ColumnRef:
		cp := *x
		return &cp
	case *Literal:
		cp := *x
		return &cp
	case *Unary:
		return &Unary{Op: x.Op, X: CloneExpr(x.X)}
	case *Binary:
		return &Binary{Op: x.Op, L: CloneExpr(x.L), R: CloneExpr(x.R)}
	case *FuncCall:
		out := &FuncCall{Name: x.Name, Distinct: x.Distinct, Star: x.Star}
		for _, a := range x.Args {
			out.Args = append(out.Args, CloneExpr(a))
		}
		return out
	case *InExpr:
		out := &InExpr{X: CloneExpr(x.X), Not: x.Not, Sub: x.Sub.Clone()}
		for _, a := range x.List {
			out.List = append(out.List, CloneExpr(a))
		}
		return out
	case *LikeExpr:
		return &LikeExpr{X: CloneExpr(x.X), Not: x.Not, Pattern: CloneExpr(x.Pattern)}
	case *BetweenExpr:
		return &BetweenExpr{X: CloneExpr(x.X), Not: x.Not, Lo: CloneExpr(x.Lo), Hi: CloneExpr(x.Hi)}
	case *IsNullExpr:
		return &IsNullExpr{X: CloneExpr(x.X), Not: x.Not}
	case *ExistsExpr:
		return &ExistsExpr{Not: x.Not, Sub: x.Sub.Clone()}
	case *SubqueryExpr:
		return &SubqueryExpr{Sub: x.Sub.Clone()}
	default:
		return e
	}
}
