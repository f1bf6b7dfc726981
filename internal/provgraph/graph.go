// Package provgraph implements the join-semantics discovery of CycleSQL's
// explanation generation (paper §IV-C, Fig 6): the join relations of a
// query are converted into a table graph and matched by graph isomorphism
// against a pool of pre-defined topologies (object-object,
// subject-relationship-object, object-attribute); on a match, the
// topology's phrase template instantiates with the concrete table names,
// and otherwise the table names themselves represent the join semantics.
//
// How query semantics attach to the provenance itself lives in
// internal/explain.
package provgraph

import (
	"strings"

	"cyclesql/internal/schema"
)

// Topology is one pre-defined inter-table relation graph in the pool.
type Topology struct {
	Name string
	// Adjacency over node indices 0..N-1.
	Edges [][2]int
	// Phrase instantiates the topology with concrete natural table names;
	// the argument order follows the matched node assignment.
	Phrase func(names []string) string
}

// Pool is the pre-defined inter-table relation graph pool. Matching is
// attempted in order, so more specific topologies come first.
var Pool = []Topology{
	{
		// A junction table linking two entities: subject-relationship-object.
		Name:  "subject-relationship-object",
		Edges: [][2]int{{1, 0}, {1, 2}}, // node 1 is the junction
		Phrase: func(names []string) string {
			return names[0] + " with " + names[2]
		},
	},
	{
		// A chain where one endpoint hangs off an entity: object-attribute.
		Name:  "object-attribute",
		Edges: [][2]int{{0, 1}, {1, 2}},
		Phrase: func(names []string) string {
			return names[0] + " of " + names[2]
		},
	},
	{
		// Two directly related entities: object-object.
		Name:  "object-object",
		Edges: [][2]int{{0, 1}},
		Phrase: func(names []string) string {
			return names[0] + " with " + names[1]
		},
	},
}

// JoinSemantics is the discovered semantics of a join relation.
type JoinSemantics struct {
	Topology string // matched pool entry, or "" for the fallback
	Phrase   string
}

// DiscoverJoin matches the query's join relation (the induced schema
// subgraph over the referenced tables) against the pool. Junction tables
// (tables whose foreign keys point at both neighbors) take the middle role
// in subject-relationship-object matches. With no isomorphic pool entry,
// the associated table names represent the semantics.
func DiscoverJoin(s *schema.Schema, tables []string) JoinSemantics {
	if len(tables) < 2 {
		name := ""
		if len(tables) == 1 {
			if t := s.Table(tables[0]); t != nil {
				name = t.Natural()
			}
		}
		return JoinSemantics{Phrase: name}
	}
	sub := s.Graph().Subgraph(tables)
	for _, topo := range Pool {
		if assign, ok := isomorphic(sub, topo); ok {
			// For subject-relationship-object, verify the middle node is a
			// true junction (out-FKs to both neighbors); otherwise prefer
			// the chain reading.
			if topo.Name == "subject-relationship-object" && !isJunction(s, assign[1], assign[0], assign[2]) {
				continue
			}
			names := make([]string, len(assign))
			for i, tname := range assign {
				if t := s.Table(tname); t != nil {
					names[i] = t.Natural()
				} else {
					names[i] = schema.Naturalize(tname)
				}
			}
			return JoinSemantics{Topology: topo.Name, Phrase: topo.Phrase(names)}
		}
	}
	// Fallback: join the natural table names.
	names := make([]string, len(tables))
	for i, tname := range tables {
		if t := s.Table(tname); t != nil {
			names[i] = t.Natural()
		} else {
			names[i] = schema.Naturalize(tname)
		}
	}
	return JoinSemantics{Phrase: strings.Join(names, " with ")}
}

func isJunction(s *schema.Schema, mid, a, b string) bool {
	toA, toB := false, false
	for _, fk := range s.ForeignKeysFrom(mid) {
		if strings.EqualFold(fk.RefTable, a) {
			toA = true
		}
		if strings.EqualFold(fk.RefTable, b) {
			toB = true
		}
	}
	return toA && toB
}

// isomorphic checks whether g (an undirected schema subgraph) is
// isomorphic to the topology, returning the table assigned to each
// topology node. Pool graphs are tiny, so permutation search suffices.
func isomorphic(g *schema.Graph, topo Topology) ([]string, bool) {
	n := topoSize(topo)
	if len(g.Nodes) != n {
		return nil, false
	}
	want := make(map[[2]int]bool, len(topo.Edges))
	for _, e := range topo.Edges {
		want[norm(e[0], e[1])] = true
	}
	adj := map[[2]int]bool{}
	index := map[string]int{}
	for i, t := range g.Nodes {
		index[strings.ToLower(t)] = i
	}
	edgeCount := 0
	seen := map[[2]int]bool{}
	for from, tos := range g.Edges {
		fi := index[strings.ToLower(from)]
		for _, to := range tos {
			ti, ok := index[strings.ToLower(to)]
			if !ok {
				continue
			}
			k := norm(fi, ti)
			adj[k] = true
			if !seen[k] {
				seen[k] = true
				edgeCount++
			}
		}
	}
	if edgeCount != len(want) {
		return nil, false
	}
	var try func(k int) bool
	used := make([]bool, n)
	assign := make([]int, n) // topology node -> graph node
	try = func(k int) bool {
		if k == n {
			for e := range want {
				if !adj[norm(assign[e[0]], assign[e[1]])] {
					return false
				}
			}
			return true
		}
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			used[v] = true
			assign[k] = v
			if try(k + 1) {
				return true
			}
			used[v] = false
		}
		return false
	}
	if !try(0) {
		return nil, false
	}
	out := make([]string, n)
	for topoNode, gNode := range assign {
		out[topoNode] = g.Nodes[gNode]
	}
	return out, true
}

func topoSize(t Topology) int {
	max := 0
	for _, e := range t.Edges {
		if e[0] > max {
			max = e[0]
		}
		if e[1] > max {
			max = e[1]
		}
	}
	return max + 1
}

func norm(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}
