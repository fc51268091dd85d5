package hgen

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/decode"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/tech"
)

// oracleCoexistence is the brute-force coexistence search the compiled one
// replaced, kept as a reference: it enumerates whole instructions field by
// field and checks only complete leaves, through a map of the selected
// operations and an independent two-valued evaluator. Every leaf is also
// checked with decode.CheckConstraints, so the production evaluator must
// agree with the map-based one on every instruction the oracle visits.
type oracleCoexistence struct {
	t      *testing.T
	d      *isdl.Description
	budget int
	m      map[*isdl.Operation]bool // the leaf's selection, reused
}

func (o *oracleCoexistence) canCoexist(a, b *isdl.Operation) bool {
	if a.Field == b.Field {
		return a == b
	}
	o.budget = coexistBudget
	sel := make([]*isdl.Operation, len(o.d.Fields))
	sel[a.Field.Index] = a
	sel[b.Field.Index] = b
	return o.search(sel, 0)
}

func (o *oracleCoexistence) search(sel []*isdl.Operation, field int) bool {
	if o.budget <= 0 {
		return true // give up: assume they can co-occur
	}
	o.budget--
	if field == len(sel) {
		return o.valid(sel)
	}
	if sel[field] != nil {
		return o.search(sel, field+1)
	}
	for _, op := range o.d.Fields[field].Ops {
		sel[field] = op
		if o.search(sel, field+1) {
			sel[field] = nil
			return true
		}
	}
	sel[field] = nil
	return false
}

// valid checks a complete selection through the map of its operations.
func (o *oracleCoexistence) valid(sel []*isdl.Operation) bool {
	if o.m == nil {
		o.m = make(map[*isdl.Operation]bool, len(sel))
	}
	clear(o.m)
	for _, op := range sel {
		o.m[op] = true
	}
	ok := true
	for _, c := range o.d.Constraints {
		if !mapEval(c.Expr, o.m) {
			ok = false
			break
		}
	}
	if err := decode.CheckConstraints(o.d, sel); (err == nil) != ok {
		o.t.Fatalf("%s: map evaluator says %v, CheckConstraints says %v on %v", o.d.Name, ok, err, qualNames(sel))
	}
	return ok
}

// mapEval is the two-valued evaluator over the set of selected operations.
func mapEval(e isdl.CExpr, sel map[*isdl.Operation]bool) bool {
	switch e := e.(type) {
	case *isdl.CAtom:
		return sel[e.ResolvedOp]
	case *isdl.CNot:
		return !mapEval(e.X, sel)
	case *isdl.CBin:
		x, y := mapEval(e.X, sel), mapEval(e.Y, sel)
		switch e.Op {
		case "&":
			return x && y
		case "|":
			return x || y
		case "->":
			return !x || y
		}
	}
	panic("bad constraint expression")
}

func qualNames(sel []*isdl.Operation) []string {
	names := make([]string, len(sel))
	for i, op := range sel {
		names[i] = op.QualName()
	}
	return names
}

// checkAgainstOracle compares the compiled relation with the oracle on
// every cross-field operation pair of d and returns how many pairs can
// and cannot co-occur. Neither search may exhaust its budget.
func checkAgainstOracle(t *testing.T, d *isdl.Description) (yes, no int) {
	t.Helper()
	c := newCoexistence(d)
	o := &oracleCoexistence{t: t, d: d}
	for fi, f := range d.Fields {
		for _, g := range d.Fields[fi+1:] {
			for _, a := range f.Ops {
				for _, b := range g.Ops {
					got, want := c.canCoexist(a, b), o.canCoexist(a, b)
					if o.budget <= 0 {
						t.Fatalf("%s: oracle exhausted its budget on %s, %s", d.Name, a.QualName(), b.QualName())
					}
					if got != want {
						t.Fatalf("%s: canCoexist(%s, %s) = %v, oracle says %v", d.Name, a.QualName(), b.QualName(), got, want)
					}
					if want {
						yes++
					} else {
						no++
					}
				}
			}
		}
	}
	if c.exhausted != 0 {
		t.Fatalf("%s: %d compiled searches exhausted the budget", d.Name, c.exhausted)
	}
	return yes, no
}

func TestCoexistMatchesOracleOnZoo(t *testing.T) {
	for _, e := range machines.Zoo() {
		yes, no := checkAgainstOracle(t, e.Parse())
		if e.Name == "spam" && (yes == 0 || no == 0) {
			t.Errorf("spam: %d co-occurring and %d exclusive pairs; want both kinds", yes, no)
		}
	}
}

// TestCoexistMatchesOracleOnRemovals checks every single-operation removal
// of SPAM, built by explore's rules: the operation leaves its field and
// every constraint that mentions it is dropped; the result round-trips
// through the formatter like an explored candidate.
func TestCoexistMatchesOracleOnRemovals(t *testing.T) {
	t.Parallel()
	base := machines.SPAM()
	for fi, f := range base.Fields {
		for oi := range f.Ops {
			d := machines.SPAM()
			g := d.Fields[fi]
			op := g.Ops[oi]
			delete(g.ByName, op.Name)
			g.Ops = append(g.Ops[:oi], g.Ops[oi+1:]...)
			kept := d.Constraints[:0]
			for _, c := range d.Constraints {
				mentions := false
				forEachAtom(c.Expr, func(a *isdl.CAtom) {
					mentions = mentions || (a.Field == g.Name && a.Op == op.Name)
				})
				if !mentions {
					kept = append(kept, c)
				}
			}
			d.Constraints = kept
			d, err := isdl.Parse(isdl.Format(d))
			if err != nil {
				t.Fatalf("remove %s: %v", op.QualName(), err)
			}
			checkAgainstOracle(t, d)
		}
	}
}

// randomCExpr builds a random constraint tree over d's operations.
func randomCExpr(rng *rand.Rand, d *isdl.Description, depth int) isdl.CExpr {
	if depth == 0 || rng.Intn(3) == 0 {
		f := d.Fields[rng.Intn(len(d.Fields))]
		op := f.Ops[rng.Intn(len(f.Ops))]
		return &isdl.CAtom{Field: f.Name, Op: op.Name, ResolvedField: f, ResolvedOp: op}
	}
	if rng.Intn(4) == 0 {
		return &isdl.CNot{X: randomCExpr(rng, d, depth-1)}
	}
	return &isdl.CBin{
		Op: []string{"&", "|", "->"}[rng.Intn(3)],
		X:  randomCExpr(rng, d, depth-1),
		Y:  randomCExpr(rng, d, depth-1),
	}
}

// spaceRelation is the oracle relation for descriptions too many to search
// pair by pair: it enumerates every complete instruction of d once, checks
// it like the oracle's leaves, and records which operation pairs some
// valid instruction contains.
func spaceRelation(t *testing.T, d *isdl.Description) func(a, b *isdl.Operation) bool {
	o := &oracleCoexistence{t: t, d: d}
	ids := map[*isdl.Operation]int{}
	for _, f := range d.Fields {
		for _, op := range f.Ops {
			ids[op] = len(ids)
		}
	}
	n := len(ids)
	rel := make([]bool, n*n)
	sel := make([]*isdl.Operation, len(d.Fields))
	selIDs := make([]int, len(d.Fields))
	var walk func(field int)
	walk = func(field int) {
		if field < len(sel) {
			for _, op := range d.Fields[field].Ops {
				sel[field] = op
				walk(field + 1)
			}
			return
		}
		if !o.valid(sel) {
			return
		}
		for i, op := range sel {
			selIDs[i] = ids[op]
		}
		for i, a := range selIDs {
			for _, b := range selIDs[i+1:] {
				rel[a*n+b] = true
			}
		}
	}
	walk(0)
	return func(a, b *isdl.Operation) bool { return rel[ids[a]*n+ids[b]] }
}

// TestCoexistMatchesOracleOnRandomConstraints replaces SPAM's constraint
// section with seeded random &, |, -> and negation trees over its fields.
func TestCoexistMatchesOracleOnRandomConstraints(t *testing.T) {
	t.Parallel()
	const sets = 200
	rng := rand.New(rand.NewSource(12))
	var yes, no int
	for i := 0; i < sets; i++ {
		d := machines.SPAM()
		d.Constraints = nil
		for n := 1 + rng.Intn(3); n > 0; n-- {
			d.Constraints = append(d.Constraints, &isdl.Constraint{Expr: randomCExpr(rng, d, 3), Text: fmt.Sprintf("random %d", i)})
		}
		want := spaceRelation(t, d)
		c := newCoexistence(d)
		for fi, f := range d.Fields {
			for _, g := range d.Fields[fi+1:] {
				for _, a := range f.Ops {
					for _, b := range g.Ops {
						if got := c.canCoexist(a, b); got != want(a, b) {
							t.Fatalf("set %d: canCoexist(%s, %s) = %v, oracle says %v", i, a.QualName(), b.QualName(), got, !got)
						} else if got {
							yes++
						} else {
							no++
						}
					}
				}
			}
		}
		if c.exhausted != 0 {
			t.Fatalf("set %d: %d compiled searches exhausted the budget", i, c.exhausted)
		}
	}
	if yes == 0 || no == 0 {
		t.Errorf("%d co-occurring and %d exclusive pairs over %d sets; want both kinds", yes, no, sets)
	}
	t.Logf("%d co-occurring and %d exclusive pairs over %d sets", yes, no, sets)
}

// exhaustingMachine has ten fields of six operations. Only f0.a and f1.a
// carry RTL (so theirs is the one cross-field pair synthesis asks about),
// and the two demand different f9 operations — a conflict no constraint
// can see before the last field, so the search walks the 6^7 selections
// of fields f2..f8 and runs out of budget.
func exhaustingMachine(t *testing.T) *isdl.Description {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(`Machine exhaust;
Format 32;
Section Global_Definitions
Section Storage
InstructionMemory IMEM width 32 depth 16;
Register ACC width 8;
Register BCC width 8;
ProgramCounter PC width 4;
Section Instruction_Set
`)
	for f := 0; f < 10; f++ {
		fmt.Fprintf(&sb, "Field f%d:\n", f)
		for o := 0; o < 6; o++ {
			fmt.Fprintf(&sb, "  op %c Encode { I[%d:%d] = 0b%03b; }", 'a'+o, 3*f+2, 3*f, o)
			switch {
			case f == 0 && o == 0:
				sb.WriteString(" Action { ACC <- ACC + 1; }")
			case f == 1 && o == 0:
				sb.WriteString(" Action { BCC <- BCC + 1; }")
			}
			sb.WriteString("\n")
		}
	}
	sb.WriteString(`Section Constraints
constraint f0.a -> f9.a;
constraint f1.a -> f9.b;
`)
	d, err := isdl.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCoexistExhaustionCounted(t *testing.T) {
	d := exhaustingMachine(t)
	opts := DefaultOptions()
	opts.EmitVerilog = false
	r, err := Synthesize(d, tech.LSI10K(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.CoexistExhausted == 0 {
		t.Fatal("the coexistence search did not exhaust its budget")
	}
	if !strings.Contains(r.Report(), "exhausted") {
		t.Errorf("report does not mention the exhausted search:\n%s", r.Report())
	}
	// f0.a and f1.a are exclusive (f9 cannot hold both a and b), but both
	// searches run out first, and the compiled one answers the
	// conservative yes.
	c := newCoexistence(d)
	a, b := d.Fields[0].ByName["a"], d.Fields[1].ByName["a"]
	if !c.canCoexist(a, b) || c.exhausted != 1 {
		t.Fatalf("budgeted search: exhausted %d, want the conservative yes", c.exhausted)
	}
	o := &oracleCoexistence{t: t, d: d}
	o.canCoexist(a, b)
	if o.budget > 0 {
		t.Fatal("oracle finished within the budget")
	}
}

func TestCoexistNoExhaustionOnZoo(t *testing.T) {
	for _, e := range machines.Zoo() {
		r, err := Synthesize(e.Parse(), tech.LSI10K(), Options{Sharing: ShareRulesAndConstraints, Decode: DecodeTwoLevel})
		if err != nil {
			t.Fatal(err)
		}
		if r.CoexistExhausted != 0 {
			t.Errorf("%s: %d exhausted coexistence searches", e.Name, r.CoexistExhausted)
		}
	}
}
