package isdl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Format renders a description back to ISDL source. The architecture
// synthesis system of the paper emits ISDL descriptions (§4.1); the
// exploration driver formats every derived candidate (Template.Derive)
// once, and that canonical text keys the evaluation memo.
// Format(Parse(Format(d))) is a fixpoint (covered by tests), so the text
// does not depend on whether a description was parsed or derived.
func Format(d *Description) string {
	var sb strings.Builder
	if d.Name != "" {
		sb.WriteString("Machine " + d.Name + ";\n")
	}
	sb.WriteString("Format " + strconv.Itoa(d.WordWidth) + ";\n\n")

	sb.WriteString("Section Global_Definitions\n\n")
	for _, name := range sortedKeys(d.Tokens) {
		formatToken(&sb, d.Tokens[name])
	}
	sb.WriteByte('\n')
	// Non-terminals in dependency-safe (name) order; Parse resolves them
	// topologically so source order is free.
	for _, name := range sortedKeysNT(d.NonTerminals) {
		formatNT(&sb, d.NonTerminals[name])
	}

	sb.WriteString("Section Storage\n\n")
	for _, st := range d.Storage {
		sb.WriteString(st.Kind.String() + " " + st.Name + " width " + strconv.Itoa(st.Width))
		if st.Kind.Addressed() {
			sb.WriteString(" depth " + strconv.Itoa(st.Depth))
		}
		if st.Base != 0 {
			sb.WriteString(" base " + strconv.FormatUint(st.Base, 10))
		}
		sb.WriteString(";\n")
	}
	for _, a := range d.Aliases {
		sb.WriteString("Alias " + a.Name + " = " + a.Target)
		if a.Indexed {
			sb.WriteString("[" + strconv.FormatUint(a.Index, 10) + "]")
		}
		if a.Sliced {
			sb.WriteString("[" + strconv.Itoa(a.Hi) + ":" + strconv.Itoa(a.Lo) + "]")
		}
		sb.WriteString(";\n")
	}

	sb.WriteString("\nSection Instruction_Set\n")
	for _, f := range d.Fields {
		sb.WriteString("\nField " + f.Name + ":\n")
		for _, op := range f.Ops {
			formatOp(&sb, op)
		}
	}

	if len(d.Constraints) > 0 {
		sb.WriteString("\nSection Constraints\n\n")
		for _, c := range d.Constraints {
			sb.WriteString("constraint " + c.Text + ";\n")
		}
	}

	if len(d.Info) > 0 {
		sb.WriteString("\nSection Architectural_Information\n\n")
		for _, k := range sortedKeysStr(d.Info) {
			v := d.Info[k]
			if strings.ContainsAny(v, " \t") || v == "" {
				fmt.Fprintf(&sb, "%s = \"%s\";\n", k, v)
			} else {
				fmt.Fprintf(&sb, "%s = %s;\n", k, v)
			}
		}
	}
	return sb.String()
}

func sortedKeys(m map[string]*Token) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysNT(m map[string]*NonTerminal) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysStr(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func formatToken(sb *strings.Builder, t *Token) {
	switch t.Kind {
	case TokRegSet:
		fmt.Fprintf(sb, "Token %s \"%s\" [%d..%d];\n", t.Name, t.Prefix, t.Lo, t.Hi)
	case TokEnum:
		fmt.Fprintf(sb, "Token %s enum { ", t.Name)
		for i := range t.EnumNames {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(sb, "\"%s\" = %d", t.EnumNames[i], t.EnumValues[i])
		}
		sb.WriteString(" };\n")
	case TokImm:
		sign := "unsigned"
		if t.Signed {
			sign = "signed"
		}
		fmt.Fprintf(sb, "Token %s imm %s %d;\n", t.Name, sign, t.RetWidth)
	}
}

func formatNT(sb *strings.Builder, nt *NonTerminal) {
	fmt.Fprintf(sb, "Non_Terminal %s width %d :\n", nt.Name, nt.RetWidth)
	for _, opt := range nt.Options {
		sb.WriteString("  option")
		formatSyntax(sb, opt.Syntax, opt.Params)
		sb.WriteByte('\n')
		formatEncode(sb, "R", opt.Encode, opt.Params)
		fmt.Fprintf(sb, "    Value { %s }\n", opt.Value)
		formatStmts(sb, "SideEffect", opt.SideEffect)
		formatCosts(sb, opt.Costs, opt.Timing, true)
	}
	sb.WriteString(";\n\n")
}

func formatOp(sb *strings.Builder, op *Operation) {
	sb.WriteString("  op ")
	sb.WriteString(op.Name)
	formatSyntax(sb, op.Syntax, op.Params)
	sb.WriteByte('\n')
	formatEncode(sb, "I", op.Encode, op.Params)
	formatStmts(sb, "Action", op.Action)
	formatStmts(sb, "SideEffect", op.SideEffect)
	formatCosts(sb, op.Costs, op.Timing, false)
}

func formatSyntax(sb *strings.Builder, syn []SynElem, params []*Param) {
	for _, el := range syn {
		if el.Lit != "" {
			if el.Lit == "," {
				sb.WriteString(" ,")
			} else {
				sb.WriteString(" \"" + el.Lit + "\"")
			}
			continue
		}
		p := params[el.Param]
		sb.WriteString(" (" + p.Name + ": " + p.TypeName + ")")
	}
}

func formatEncode(sb *strings.Builder, dst string, encode []*BitAssign, params []*Param) {
	if len(encode) == 0 {
		return
	}
	sb.WriteString("    Encode { ")
	for _, ba := range encode {
		sb.WriteString(dst)
		sb.WriteByte('[')
		sb.WriteString(strconv.Itoa(ba.Hi))
		if ba.Hi != ba.Lo {
			sb.WriteByte(':')
			sb.WriteString(strconv.Itoa(ba.Lo))
		}
		sb.WriteString("] = ")
		if ba.ConstSet {
			sb.WriteString("0b")
			sb.WriteString(ba.Const.BitString())
			sb.WriteString("; ")
		} else {
			sb.WriteString(params[ba.Param].Name)
			if ba.PHi >= 0 {
				sb.WriteString("[" + strconv.Itoa(ba.PHi) + ":" + strconv.Itoa(ba.PLo) + "]")
			}
			sb.WriteString("; ")
		}
	}
	sb.WriteString("}\n")
}

func formatStmts(sb *strings.Builder, part string, stmts []Stmt) {
	if len(stmts) == 0 {
		return
	}
	sb.WriteString("    " + part + " { ")
	for _, s := range stmts {
		writeStmt(sb, s)
		sb.WriteByte(' ')
	}
	sb.WriteString("}\n")
}

func formatCosts(sb *strings.Builder, c Costs, t Timing, isOption bool) {
	if !isOption || c != (Costs{}) {
		sb.WriteString("    Cost { Cycle = " + strconv.Itoa(c.Cycle) + "; Stall = " + strconv.Itoa(c.Stall) +
			"; Size = " + strconv.Itoa(c.Size) + "; }\n")
	}
	if !isOption || t != (Timing{}) {
		sb.WriteString("    Timing { Latency = " + strconv.Itoa(t.Latency) + "; Usage = " + strconv.Itoa(t.Usage) + "; }\n")
	}
}
