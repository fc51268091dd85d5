package hgen

import (
	"sort"

	"repro/internal/isdl"
)

// This file implements the resource-sharing algorithm of Figure 5:
//
//	Label each operation in RTL with an integer
//	A[i][j] = 1 if the nodes can be shared, 0 otherwise
//	Generate maximal cliques for A
//	Generate hardware for maximal cliques
//
// with the shareability criteria of §4.1.2 (rules 1–4) and the refinement
// that constraints can prove operations in different fields mutually
// exclusive, enabling more sharing (the bus example of §4.1.1).

// SharingMode selects how aggressively nodes are shared (ablation A).
type SharingMode int

const (
	// ShareOff generates one circuit per node (the "naive scheme" of
	// §4.1.1).
	ShareOff SharingMode = iota
	// ShareRules applies rules 1–4 only.
	ShareRules
	// ShareRulesAndConstraints additionally consults the constraint
	// section to prove cross-field mutual exclusion (the paper's full
	// algorithm).
	ShareRulesAndConstraints
)

func (m SharingMode) String() string {
	switch m {
	case ShareOff:
		return "off"
	case ShareRules:
		return "rules"
	default:
		return "rules+constraints"
	}
}

// shareMatrix builds A. A[i][j] is true iff nodes i and j may share a
// circuit.
func shareMatrix(d *isdl.Description, nodes []*Node, mode SharingMode, coex *coexistence) [][]bool {
	n := len(nodes)
	a := make([][]bool, n)
	for i := range a {
		a[i] = make([]bool, n)
	}
	if mode == ShareOff {
		return a
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ok := shareable(nodes[i], nodes[j], mode, coex)
			a[i][j], a[j][i] = ok, ok
		}
	}
	return a
}

func shareable(x, y *Node, mode SharingMode, coex *coexistence) bool {
	// Rule 2: different tasks cannot share (add/sub subsume each other).
	if unitClass(x.Kind) != unitClass(y.Kind) {
		return false
	}
	if x.Op == y.Op {
		// Same operation: live in the same cycle (rule 1 covers the same
		// statement; concurrently-evaluated statements of one operation
		// are equally parallel) — unless they belong to different options
		// of the same non-terminal parameter, which are mutually
		// exclusive by construction.
		xp, yp := x.ParamPath, y.ParamPath
		if xp == "" || yp == "" {
			return false
		}
		return paramOf(xp) == paramOf(yp) && xp != yp
	}
	if x.Op.Field == y.Op.Field {
		// Rule 3: operations of one field are mutually exclusive.
		return true
	}
	// Rule 4: different fields operate in parallel — unless the
	// constraints prove the two operations never co-occur.
	if mode == ShareRulesAndConstraints {
		return !coex.canCoexist(x.Op, y.Op)
	}
	return false
}

// paramOf strips the option index from "param/idx[...]" leaving the
// parameter root.
func paramOf(path string) string {
	for i := 0; i < len(path); i++ {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return path
}

// coexistBudget caps the steps of one pair's coexistence search.
const coexistBudget = 200000

// coexistence answers "can these two operations appear in the same valid
// instruction?" by a depth-first search, in field order, for a completing
// selection of one operation per remaining field. The constraint section
// is compiled once per synthesis: byField[i] lists the constraints that
// mention field i, the only ones an assignment to field i can decide.
// After each assignment the search evaluates those three-valued and cuts
// the branch as soon as one is False, so every leaf it reaches satisfies
// every constraint.
type coexistence struct {
	d       *isdl.Description
	byField [][]*isdl.Constraint
	cache   map[[2]*isdl.Operation]bool
	sel     []*isdl.Operation
	// budget is the steps left for the current pair; exhausting it
	// answers "yes" (conservative: no sharing), sets gaveUp and counts
	// the pair in exhausted.
	budget    int
	gaveUp    bool
	exhausted int
}

func newCoexistence(d *isdl.Description) *coexistence {
	c := &coexistence{
		d:       d,
		byField: make([][]*isdl.Constraint, len(d.Fields)),
		cache:   map[[2]*isdl.Operation]bool{},
		sel:     make([]*isdl.Operation, len(d.Fields)),
	}
	for _, con := range d.Constraints {
		seen := make([]bool, len(d.Fields))
		forEachAtom(con.Expr, func(a *isdl.CAtom) {
			if fi := a.ResolvedField.Index; !seen[fi] {
				seen[fi] = true
				c.byField[fi] = append(c.byField[fi], con)
			}
		})
	}
	return c
}

func forEachAtom(e isdl.CExpr, f func(*isdl.CAtom)) {
	switch e := e.(type) {
	case *isdl.CAtom:
		f(e)
	case *isdl.CNot:
		forEachAtom(e.X, f)
	case *isdl.CBin:
		forEachAtom(e.X, f)
		forEachAtom(e.Y, f)
	}
}

func (c *coexistence) canCoexist(a, b *isdl.Operation) bool {
	if a.Field == b.Field {
		return a == b
	}
	key := [2]*isdl.Operation{a, b}
	if a.Field.Index > b.Field.Index {
		key = [2]*isdl.Operation{b, a}
	}
	if v, ok := c.cache[key]; ok {
		return v
	}
	c.budget, c.gaveUp = coexistBudget, false
	clear(c.sel)
	c.sel[a.Field.Index] = a
	c.sel[b.Field.Index] = b
	v := c.d.Violation(c.sel) == nil && c.search(0)
	if c.gaveUp {
		c.exhausted++
	}
	c.cache[key] = v
	return v
}

func (c *coexistence) search(field int) bool {
	if c.budget <= 0 {
		c.gaveUp = true
		return true // give up: assume they can co-occur
	}
	c.budget--
	if field == len(c.sel) {
		return true
	}
	if c.sel[field] != nil {
		return c.search(field + 1)
	}
	for _, op := range c.d.Fields[field].Ops {
		c.sel[field] = op
		if c.consistent(field) && c.search(field+1) {
			c.sel[field] = nil
			return true
		}
	}
	c.sel[field] = nil
	return false
}

// consistent reports whether no constraint over field is False under the
// current partial selection.
func (c *coexistence) consistent(field int) bool {
	for _, con := range c.byField[field] {
		if con.Eval(c.sel) == isdl.False {
			return false
		}
	}
	return true
}

// maximalCliques enumerates maximal cliques of A with the Bron–Kerbosch
// algorithm (pivoting on the vertex with most candidates). Enumeration is
// capped; the greedy cover below only needs a rich-enough pool.
func maximalCliques(a [][]bool, cap int) [][]int {
	n := len(a)
	var cliques [][]int
	var bk func(r, p, x []int)
	bk = func(r, p, x []int) {
		if len(cliques) >= cap {
			return
		}
		if len(p) == 0 && len(x) == 0 {
			clique := make([]int, len(r))
			copy(clique, r)
			cliques = append(cliques, clique)
			return
		}
		// Pivot: vertex of p∪x with most neighbours in p.
		pivot, best := -1, -1
		for _, u := range append(append([]int{}, p...), x...) {
			cnt := 0
			for _, v := range p {
				if a[u][v] {
					cnt++
				}
			}
			if cnt > best {
				best, pivot = cnt, u
			}
		}
		var candidates []int
		for _, v := range p {
			if pivot < 0 || !a[pivot][v] {
				candidates = append(candidates, v)
			}
		}
		for _, v := range candidates {
			var np, nx []int
			for _, w := range p {
				if a[v][w] {
					np = append(np, w)
				}
			}
			for _, w := range x {
				if a[v][w] {
					nx = append(nx, w)
				}
			}
			nr := make([]int, len(r), len(r)+1)
			copy(nr, r)
			bk(append(nr, v), np, nx)
			// Move v from p to x.
			for i, w := range p {
				if w == v {
					p = append(p[:i], p[i+1:]...)
					break
				}
			}
			x = append(x, v)
		}
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	bk(nil, all, nil)
	return cliques
}

// cliqueCover partitions the nodes into shared groups: a greedy set cover
// over the maximal cliques (largest-first), falling back to greedy clique
// growth for nodes the capped enumeration missed. Every returned group is a
// clique of A.
func cliqueCover(a [][]bool, cliques [][]int) [][]int {
	n := len(a)
	assigned := make([]bool, n)
	var groups [][]int

	sort.Slice(cliques, func(i, j int) bool { return len(cliques[i]) > len(cliques[j]) })
	for _, cl := range cliques {
		var fresh []int
		for _, v := range cl {
			if !assigned[v] {
				fresh = append(fresh, v)
			}
		}
		if len(fresh) == 0 {
			continue
		}
		for _, v := range fresh {
			assigned[v] = true
		}
		groups = append(groups, fresh)
	}
	// Fallback for anything the cap left uncovered.
	for v := 0; v < n; v++ {
		if assigned[v] {
			continue
		}
		group := []int{v}
		assigned[v] = true
		for w := v + 1; w < n; w++ {
			if assigned[w] {
				continue
			}
			ok := true
			for _, g := range group {
				if !a[g][w] {
					ok = false
					break
				}
			}
			if ok {
				group = append(group, w)
				assigned[w] = true
			}
		}
		groups = append(groups, group)
	}
	return groups
}
