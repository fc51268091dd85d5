package explore

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/isdl"
	"repro/internal/machines"
)

// textNeighbours is the move generator the template path replaced, kept as
// the oracle: enumerate the edits on the parsed source, and for each edit
// parse the source again, apply the edit, format the result and parse that
// text to validate it.
func textNeighbours(t *testing.T, src string) (moves []move, invalid []string) {
	t.Helper()
	base, err := isdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ed := range edits(base) {
		d, err := isdl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if !ed.apply(d) {
			continue
		}
		text := isdl.Format(d)
		if _, err := isdl.Parse(text); err != nil {
			invalid = append(invalid, ed.action)
			continue
		}
		moves = append(moves, move{action: ed.action, src: text})
	}
	return moves, invalid
}

func templateNeighbours(t *testing.T, src string) ([]move, []string) {
	t.Helper()
	tp, err := isdl.NewTemplate(src)
	if err != nil {
		t.Fatal(err)
	}
	return neighbours(tp)
}

// TestNeighboursMatchTextRoundTrip: on every zoo machine, deriving moves
// from a copied syntax tree yields exactly the moves of the text round
// trip — the same actions in the same order, byte-identical texts and the
// same valid/invalid verdicts — from the hand-written source, from its
// canonical text and from derived candidates. Every derived text is a
// Format fixpoint, so memo keys and seen-set keys cannot drift.
func TestNeighboursMatchTextRoundTrip(t *testing.T) {
	for _, z := range machines.Zoo() {
		t.Run(z.Name, func(t *testing.T) {
			first, _ := templateNeighbours(t, z.Source)
			if len(first) == 0 {
				t.Fatal("no moves")
			}
			srcs := []string{z.Source, isdl.Format(z.Parse()), first[0].src, first[len(first)-1].src}
			for si, src := range srcs {
				got, gotInvalid := templateNeighbours(t, src)
				want, wantInvalid := textNeighbours(t, src)
				if len(got) != len(want) {
					t.Fatalf("source %d: %d moves, want %d", si, len(got), len(want))
				}
				for i := range want {
					if got[i].action != want[i].action {
						t.Fatalf("source %d move %d: action %q, want %q", si, i, got[i].action, want[i].action)
					}
					if got[i].src != want[i].src {
						t.Fatalf("source %d move %q: derived text differs from the text round trip", si, want[i].action)
					}
					d, err := isdl.Parse(got[i].src)
					if err != nil {
						t.Fatalf("source %d move %q: %v", si, want[i].action, err)
					}
					if isdl.Format(d) != got[i].src {
						t.Fatalf("source %d move %q: derived text is not a Format fixpoint", si, want[i].action)
					}
				}
				if !reflect.DeepEqual(gotInvalid, wantInvalid) {
					t.Fatalf("source %d: invalid edits %q, want %q", si, gotInvalid, wantInvalid)
				}
			}
		})
	}
}

// TestNeighboursReportInvalidEdits: an edit the semantic pass rejects is
// reported, not dropped silently, and agrees with the text round trip.
// Halving a memory below an alias of its top element is such an edit.
func TestNeighboursReportInvalidEdits(t *testing.T) {
	tp, err := isdl.NewTemplate(machines.ToySource)
	if err != nil {
		t.Fatal(err)
	}
	var mem *isdl.Storage
	for _, st := range tp.Base.Storage {
		if st.Kind == isdl.StDataMemory && st.Depth >= 64 {
			mem = st
			break
		}
	}
	if mem == nil {
		t.Fatal("toy has no data memory the depth edit applies to")
	}
	_, text, err := tp.Derive(func(d *isdl.Description) bool {
		d.Aliases = append(d.Aliases, &isdl.Alias{Name: "TOP", Target: mem.Name,
			Indexed: true, Index: uint64(mem.Depth - 1), Hi: -1, Lo: -1})
		return true
	})
	if err != nil {
		t.Fatalf("adding the alias: %v", err)
	}
	moves, invalid := templateNeighbours(t, text)
	if want := []string{fmt.Sprintf("halve %s depth", mem.Name)}; !reflect.DeepEqual(invalid, want) {
		t.Fatalf("invalid edits %q, want %q", invalid, want)
	}
	oracleMoves, oracleInvalid := textNeighbours(t, text)
	if !reflect.DeepEqual(invalid, oracleInvalid) || len(moves) != len(oracleMoves) {
		t.Fatalf("verdicts differ from the text round trip: invalid %q vs %q, %d vs %d moves",
			invalid, oracleInvalid, len(moves), len(oracleMoves))
	}
}

// TestDerivedDescriptionEvaluatesLikeParse: handing a derived description
// straight to the pipeline gives the same evaluation as parsing its text.
func TestDerivedDescriptionEvaluatesLikeParse(t *testing.T) {
	const kernel = "var i, s;\ns = 0;\nfor i = 0 to 7 { s = s + i; }\n"
	pipe := &core.Pipeline{}
	for _, z := range machines.Zoo() {
		moves, _ := templateNeighbours(t, z.Source)
		mv := moves[len(moves)-1]
		got, gotErr := pipe.EvaluateDescription(mv.desc, mv.src, kernel, "kernel", nil)
		want, wantErr := pipe.EvaluateKernel(mv.src, kernel, "kernel")
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s %q: error %v, want %v", z.Name, mv.action, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if oneLine(got) != oneLine(want) || got.EnergyUJ != want.EnergyUJ ||
			got.Instructions != want.Instructions || !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("%s %q: derived evaluation %s, parsed %s", z.Name, mv.action, oneLine(got), oneLine(want))
		}
	}
}

// TestDeriveLeavesTemplateIntact: edits of a derived copy — the edit
// callback's and later ones on the returned description — never reach the
// template. A copy that shared a field's Ops or the Constraints backing
// array with the template would fail here: removeOp rewrites both in
// place.
func TestDeriveLeavesTemplateIntact(t *testing.T) {
	unchanged := func(*isdl.Description) bool { return true }
	for _, z := range machines.Zoo() {
		tp, err := isdl.NewTemplate(z.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, ed := range edits(tp.Base) {
			d, _, err := tp.Derive(ed.apply)
			if err != nil || d == nil {
				continue
			}
			for fi := range d.Fields {
				removeOp(d, fi, 0)
			}
			d.Storage[0].Depth++
			_, text, err := tp.Derive(unchanged)
			if err != nil {
				t.Fatalf("%s after %q: %v", z.Name, ed.action, err)
			}
			if text != tp.Text {
				t.Fatalf("%s: %q changed the template", z.Name, ed.action)
			}
		}
	}
}
