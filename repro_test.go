package repro_test

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/explore"
)

// TestFacadeEndToEnd walks the whole public API: parse a bundled machine,
// compile a kernel, assemble, marshal/unmarshal, disassemble, simulate,
// synthesize and evaluate.
func TestFacadeEndToEnd(t *testing.T) {
	srcs := repro.Machines()
	for _, name := range []string{"toy", "spam", "spam2", "risc32"} {
		if _, ok := srcs[name]; !ok {
			t.Fatalf("machine %s missing", name)
		}
	}

	d, err := repro.ParseISDL(srcs["spam2"])
	if err != nil {
		t.Fatal(err)
	}
	if text := repro.FormatISDL(d); !strings.Contains(text, "Machine spam2;") {
		t.Fatal("FormatISDL lost the header")
	}

	asmText, err := repro.Compile(d, "var x, y; x = 6; y = x + x + 2;")
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.Assemble(d, asmText)
	if err != nil {
		t.Fatal(err)
	}

	// Object-format round trip.
	p2, err := repro.UnmarshalProgram(d, repro.MarshalProgram(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Words) != len(p.Words) {
		t.Fatal("XBIN round trip changed the program")
	}
	if repro.Disassemble(p) == "" {
		t.Fatal("empty disassembly")
	}

	sim := repro.NewSimulator(d)
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

	hw, err := repro.Synthesize(d, nil, repro.DefaultSynthesisOptions())
	if err != nil {
		t.Fatal(err)
	}
	if hw.VerilogLines == 0 || hw.CycleNs <= 0 {
		t.Fatalf("synthesis result: %+v", hw)
	}
	if repro.LSI10K().Name != "lsi10k" {
		t.Fatal("default library")
	}

	eval, err := repro.Evaluate(d, p, "facade")
	if err != nil {
		t.Fatal(err)
	}
	if eval.RuntimeUs <= 0 {
		t.Fatalf("evaluation: %+v", eval)
	}
}

// TestFacadeExplorer runs a one-iteration exploration through the facade.
func TestFacadeExplorer(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration is slow")
	}
	res, err := repro.NewExploration(repro.Machines()["spam2"], "var x; x = 41; x = x + 1;",
		explore.WithMaxIters(1)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Initial == nil || res.Final == nil {
		t.Fatal("incomplete result")
	}
}
