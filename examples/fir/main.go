// FIR on SPAM: the paper's DSP motivation end to end. The 16-tap filter runs
// on the generated cycle-accurate simulator of the reconstructed SPAM VLIW
// (4 operations + 3 parallel moves); the example verifies every output
// against a Go reference model, then runs the full evaluation methodology —
// cycles × cycle-length, die size, power — exactly what the exploration loop
// of Figure 1 ranks candidates by.
//
//	go run ./examples/fir
package main

import (
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/xsim"
)

func main() {
	const taps, nout = 16, 64
	samples, coefs := machines.FIRTestVectors(taps, nout)

	d := machines.SPAM()
	src := machines.FIRSPAM(taps, nout, samples, coefs)
	p, err := asm.Assemble(d, src)
	if err != nil {
		log.Fatal(err)
	}

	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		log.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		log.Fatal(err)
	}

	want := machines.FIRReference(taps, nout, samples, coefs)
	bad := 0
	for i, w := range want {
		got := sim.State().Get("DMX", machines.FIRSPAMOutBase+i).Uint64()
		if got != uint64(w) {
			bad++
			fmt.Printf("  y[%d] = %d, want %d\n", i, got, w)
		}
	}
	fmt.Printf("FIR(%d taps, %d outputs): %d/%d outputs bit-exact vs reference\n",
		taps, nout, nout-bad, nout)
	fmt.Println()
	fmt.Print(sim.Stats().Summary(d))

	// The full methodology: combine the simulation with the hardware model.
	eval, err := core.NewEvaluator().Evaluate(d, p, "fir16x64")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(eval.Summary())
}
