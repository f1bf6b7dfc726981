package sqleval

import "cyclesql/internal/sqlast"

// Uncorrelated compiles stmt with ex's settings, without caching the plan,
// and returns the expression subqueries of stmt (each an *sqlast.InExpr,
// *sqlast.ExistsExpr or *sqlast.SubqueryExpr) the compiler classified as
// uncorrelated, in memo-slot order.
func Uncorrelated(ex *Executor, stmt *sqlast.SelectStmt) ([]sqlast.Expr, error) {
	c := &compiler{ex: ex}
	if _, err := c.compileStmt(stmt, nil); err != nil {
		return nil, err
	}
	return c.memoized, nil
}

// FlightDB and RandomDB expose the in-package test databases: the paper's
// Fig 2 flight database and the mixed-kind property database the sqlgen
// corpus targets.
var (
	FlightDB = flightDB
	RandomDB = randomDB
)
