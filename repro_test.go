package repro_test

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/tech"
	"repro/internal/xsim"
)

// TestFacadeEndToEnd walks every tool the paper derives from one ISDL
// description, through the packages the commands and examples use: parse a
// bundled machine, compile a kernel, assemble, marshal/unmarshal,
// disassemble, simulate, synthesize and evaluate.
func TestFacadeEndToEnd(t *testing.T) {
	for _, name := range []string{"toy", "spam", "spam2", "risc32"} {
		if _, err := machines.Source(name); err != nil {
			t.Fatalf("machine %s missing: %v", name, err)
		}
	}

	src, err := machines.Source("spam2")
	if err != nil {
		t.Fatal(err)
	}
	d, err := isdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if text := isdl.Format(d); !strings.Contains(text, "Machine spam2;") {
		t.Fatal("isdl.Format lost the header")
	}

	asmText, err := compiler.Compile(d, "var x, y; x = 6; y = x + x + 2;")
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(d, asmText)
	if err != nil {
		t.Fatal(err)
	}

	// Object-format round trip.
	p2, err := asm.Unmarshal(d, asm.Marshal(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Words) != len(p.Words) {
		t.Fatal("XBIN round trip changed the program")
	}
	if asm.DisassembleProgram(p) == "" {
		t.Fatal("empty disassembly")
	}

	sim := xsim.New(d)
	if err := sim.Load(p2); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	depth := d.StorageByName["RF"].Depth
	if got := sim.State().Get("RF", depth-2).Uint64(); got != 14 {
		t.Fatalf("y = %d, want 14", got)
	}

	lib := tech.LSI10K()
	if lib.Name != "lsi10k" {
		t.Fatal("default library")
	}
	hw, err := hgen.Synthesize(d, lib, hgen.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if hw.VerilogLines == 0 || hw.CycleNs <= 0 {
		t.Fatalf("synthesis result: %+v", hw)
	}

	eval, err := core.NewEvaluator().Evaluate(d, p, "end-to-end")
	if err != nil {
		t.Fatal(err)
	}
	if eval.RuntimeUs <= 0 {
		t.Fatalf("evaluation: %+v", eval)
	}
}

// TestFacadeExplorer runs a one-iteration exploration from a bundled
// machine's source.
func TestFacadeExplorer(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration is slow")
	}
	res, err := explore.New(machines.SPAM2Source, "var x; x = 41; x = x + 1;",
		explore.WithMaxIters(1)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Initial == nil || res.Final == nil {
		t.Fatal("incomplete result")
	}
}
