package randmachine

import (
	"fmt"
	"math/rand"

	"repro/internal/isdl"
)

// Perturb applies n random — but always semantically valid — mutations to
// an existing ISDL description and returns the mutated canonical source
// plus a human-readable description of each applied mutation. It powers
// the exploration engine's seeded random restarts: perturbations are drawn
// deterministically from rnd, so a fixed seed reproduces the exact same
// start points.
//
// The mutation set is deliberately conservative — retime an operation's
// pipeline (deepen always, shorten when Latency > 1) or double a data
// memory — so a perturbed machine still compiles every kernel the base
// compiled: no operation is removed and no memory shrinks below data the
// kernel placed in it.
func Perturb(rnd *rand.Rand, src string, n int) (string, []string, error) {
	t, err := isdl.NewTemplate(src)
	if err != nil {
		return "", nil, err
	}
	cur := t.Text
	var actions []string
	for step := 0; step < n; step++ {
		if step > 0 {
			if t, err = isdl.NewTemplate(cur); err != nil {
				return "", nil, fmt.Errorf("perturb step %d: %w", step, err)
			}
		}
		muts := perturbations(t.Base)
		if len(muts) == 0 {
			break
		}
		m := muts[rnd.Intn(len(muts))]
		_, text, err := t.Derive(m.apply)
		if err != nil {
			// A mutation from the valid set must stay valid; treat a
			// failure as a bug rather than silently skipping it.
			return "", nil, fmt.Errorf("perturb %q produced invalid ISDL: %w", m.action, err)
		}
		cur = text
		actions = append(actions, m.action)
	}
	return cur, actions, nil
}

// perturbKind is what a perturbation changes.
type perturbKind int

const (
	deepenOp perturbKind = iota
	shortenOp
	doubleMemory
)

// perturbation is one applicable mutation. It names its target by index
// (field fi, operation oi, or storage si), so it applies to any copy of
// the description it was chosen from.
type perturbation struct {
	action     string
	kind       perturbKind
	fi, oi, si int
}

func (p perturbation) apply(d *isdl.Description) bool {
	switch p.kind {
	case deepenOp:
		o := d.Fields[p.fi].Ops[p.oi]
		o.Timing.Latency++
		o.Costs.Stall++
	case shortenOp:
		o := d.Fields[p.fi].Ops[p.oi]
		o.Timing.Latency--
		if o.Costs.Stall > 0 {
			o.Costs.Stall--
		}
	case doubleMemory:
		d.Storage[p.si].Depth *= 2
	}
	return true
}

// perturbations enumerates the valid mutations of d in a deterministic
// order (field/op/storage declaration order), so rnd draws index i against
// the same list on every run.
func perturbations(d *isdl.Description) []perturbation {
	var out []perturbation
	for fi, f := range d.Fields {
		for oi, op := range f.Ops {
			if op.Name == "nop" {
				continue
			}
			name := op.QualName()
			out = append(out, perturbation{action: "deepen " + name + " pipeline", kind: deepenOp, fi: fi, oi: oi})
			if op.Timing.Latency > 1 {
				out = append(out, perturbation{action: "shorten " + name + " pipeline", kind: shortenOp, fi: fi, oi: oi})
			}
		}
	}
	for si, st := range d.Storage {
		if st.Kind == isdl.StDataMemory {
			out = append(out, perturbation{action: fmt.Sprintf("double %s depth", st.Name), kind: doubleMemory, si: si})
		}
	}
	return out
}
