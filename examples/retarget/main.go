// Retargeting: compile one kernel for three different architectures with the
// retargetable compiler (the AVIV role in the paper's Figure 1), run each on
// its generated simulator, and compare the performance — the measurement the
// exploration loop uses to choose between candidate machines.
//
//	go run ./examples/retarget
package main

import (
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/machines"
	"repro/internal/xsim"
)

// One kernel, three machines. The kernel sums an array and counts how many
// elements exceed a threshold. %s is the per-machine data memory.
const kernelTemplate = `
var i, s, hits;
array a[16] in %s at 0 = { 12, 7, 3, 25, 14, 9, 31, 2, 18, 6, 11, 27, 4, 15, 22, 8 };
s = 0;
hits = 0;
for i = 0 to 15 {
  s = s + a[i];
  if (a[i] > 13) { hits = hits + 1; }
}
`

func main() {
	arrayMem := map[string]string{"toy": "DMEM", "spam": "DMX", "spam2": "DM", "risc32": "DMEM"}
	for _, name := range []string{"toy", "spam2", "spam", "risc32"} {
		d, err := machines.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		kernel := fmt.Sprintf(kernelTemplate, arrayMem[name])
		asmText, err := compiler.Compile(d, kernel)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		p, err := asm.Assemble(d, asmText)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		sim := xsim.New(d)
		if err := sim.Load(p); err != nil {
			log.Fatal(err)
		}
		if err := sim.Run(0); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		depth := d.StorageByName["RF"].Depth
		s := sim.State().Get("RF", depth-2).Uint64()
		hits := sim.State().Get("RF", depth-3).Uint64()
		fmt.Printf("%-6s %4d instructions, %4d cycles   s=%d hits=%d\n",
			d.Name, sim.Stats().Instructions, sim.Cycle(), s, hits)
	}
	fmt.Println("\n(s should be 214 and hits 7 on all four machines — bit-true across architectures)")
}
