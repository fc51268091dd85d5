package isdl

// Template holds one canonical description as a syntax tree, so edited
// variants of it are derived without formatting and re-parsing text. The
// exploration loop builds one per current candidate and derives every move
// from it; Derive copies the tree, applies the edit to the copy and runs
// the semantic pass on it, so a derived description passes exactly the
// validation Parse applies.
//
// The tree is taken from the canonical text (Format of the parsed
// source), which makes a derived text byte-identical to what formatting
// the edited Parse result and parsing it again would give. Derive never
// writes the template.
type Template struct {
	// Base is the analysed description of the template's source, for
	// choosing edits. It must not be modified.
	Base *Description
	// Text is Format(Base), the canonical text every edit starts from.
	Text string

	syn *Description
}

// NewTemplate parses src into a Template. It fails exactly when Parse(src)
// fails, with the same error.
func NewTemplate(src string) (*Template, error) {
	syn, err := parseSyntax(src)
	if err != nil {
		return nil, err
	}
	base := syn.clone()
	if err := analyze(base); err != nil {
		return nil, err
	}
	text := Format(base)
	if text != src {
		// A hand-written source: rebuild the tree from its canonical text,
		// the text an edited Parse result is formatted from.
		if syn, err = parseSyntax(text); err != nil {
			return nil, err
		}
	}
	return &Template{Base: base, Text: text, syn: syn}, nil
}

// Derive returns the analysed description and canonical text of the
// template changed by edit. edit receives a private copy of the syntax
// tree: only the parser's links are set (Operation.Field, Field.ByName,
// StorageByName, Tokens, NonTerminals), and it must keep the ones it
// touches consistent. When edit returns false Derive returns nil, "", nil;
// when the semantic pass rejects the edited copy it returns that error.
func (t *Template) Derive(edit func(*Description) bool) (*Description, string, error) {
	d := t.syn.clone()
	if !edit(d) {
		return nil, "", nil
	}
	if err := analyze(d); err != nil {
		return nil, "", err
	}
	return d, Format(d), nil
}

// clone deep-copies a syntax tree. Every node the semantic pass or an edit
// writes is fresh, and so is every slice and map an edit can change (a
// field's Ops and ByName, the Constraints, the storage index); leaves
// nothing writes — syntax elements, encode assignments, token value
// lists — are shared with d.
func (d *Description) clone() *Description {
	c := &Description{
		Name:          d.Name,
		WordWidth:     d.WordWidth,
		Tokens:        make(map[string]*Token, len(d.Tokens)),
		NonTerminals:  make(map[string]*NonTerminal, len(d.NonTerminals)),
		Storage:       make([]*Storage, len(d.Storage)),
		StorageByName: make(map[string]*Storage, len(d.Storage)),
		Aliases:       make([]*Alias, len(d.Aliases)),
		Fields:        make([]*Field, len(d.Fields)),
		Constraints:   make([]*Constraint, len(d.Constraints)),
		Info:          make(map[string]string, len(d.Info)),
	}
	for name, t := range d.Tokens {
		tc := *t
		c.Tokens[name] = &tc
	}
	for name, nt := range d.NonTerminals {
		ntc := *nt
		ntc.Options = make([]*Option, len(nt.Options))
		for i, opt := range nt.Options {
			oc := *opt
			oc.Params = cloneParams(opt.Params)
			oc.Value = cloneExpr(opt.Value)
			oc.SideEffect = cloneStmts(opt.SideEffect)
			ntc.Options[i] = &oc
		}
		c.NonTerminals[name] = &ntc
	}
	for i, st := range d.Storage {
		sc := *st
		c.Storage[i] = &sc
		c.StorageByName[sc.Name] = &sc
	}
	for i, a := range d.Aliases {
		ac := *a
		c.Aliases[i] = &ac
	}
	for i, f := range d.Fields {
		fc := &Field{Name: f.Name, Pos: f.Pos, Index: f.Index,
			Ops: make([]*Operation, len(f.Ops)), ByName: make(map[string]*Operation, len(f.Ops))}
		for j, op := range f.Ops {
			oc := *op
			oc.Field = fc
			oc.Params = cloneParams(op.Params)
			oc.Action = cloneStmts(op.Action)
			oc.SideEffect = cloneStmts(op.SideEffect)
			fc.Ops[j] = &oc
			fc.ByName[oc.Name] = &oc
		}
		c.Fields[i] = fc
	}
	for i, con := range d.Constraints {
		cc := *con
		cc.Expr = cloneCExpr(con.Expr)
		c.Constraints[i] = &cc
	}
	for k, v := range d.Info {
		c.Info[k] = v
	}
	return c
}

func cloneParams(ps []*Param) []*Param {
	if ps == nil {
		return nil
	}
	out := make([]*Param, len(ps))
	for i, p := range ps {
		pc := *p
		out[i] = &pc
	}
	return out
}

func cloneCExpr(e CExpr) CExpr {
	switch e := e.(type) {
	case *CAtom:
		return &CAtom{Field: e.Field, Op: e.Op}
	case *CNot:
		return &CNot{X: cloneCExpr(e.X)}
	case *CBin:
		return &CBin{Op: e.Op, X: cloneCExpr(e.X), Y: cloneCExpr(e.Y)}
	}
	return e
}

func cloneStmts(ss []Stmt) []Stmt {
	if ss == nil {
		return nil
	}
	out := make([]Stmt, len(ss))
	for i, s := range ss {
		switch s := s.(type) {
		case *Assign:
			out[i] = &Assign{At: s.At, LHS: cloneExpr(s.LHS), RHS: cloneExpr(s.RHS)}
		case *If:
			out[i] = &If{At: s.At, Cond: cloneExpr(s.Cond), Then: cloneStmts(s.Then), Else: cloneStmts(s.Else)}
		case *ExprStmt:
			out[i] = &ExprStmt{At: s.At, X: cloneExpr(s.X)}
		}
	}
	return out
}

func cloneExpr(e Expr) Expr {
	switch e := e.(type) {
	case *Lit:
		c := *e
		return &c
	case *Ref:
		c := *e
		return &c
	case *Index:
		c := *e
		c.Idx = cloneExpr(e.Idx)
		return &c
	case *SliceE:
		c := *e
		c.X = cloneExpr(e.X)
		return &c
	case *Unary:
		c := *e
		c.X = cloneExpr(e.X)
		return &c
	case *Binary:
		c := *e
		c.X, c.Y = cloneExpr(e.X), cloneExpr(e.Y)
		return &c
	case *Call:
		c := *e
		c.Args = make([]Expr, len(e.Args))
		for i, a := range e.Args {
			c.Args[i] = cloneExpr(a)
		}
		return &c
	}
	return e // nil
}
