// Exploration: architecture exploration by iterative improvement (paper §1,
// Figure 1). Starting from the SPAM2 description, the driver mutates the
// instruction set — dropping operations the kernel never needs, retiming
// functional units, shrinking memories — recompiles the kernel with the
// retargetable compiler, re-evaluates each candidate with the generated
// simulator and hardware model, and hill-climbs run time, area and power.
// Add explore.WithBeam(4) / explore.WithRestarts(3, seed) to the option
// list to search with a beam frontier or seeded random restarts instead
// (docs/EXPLORE.md).
//
//	go run ./examples/exploration
package main

import (
	"fmt"
	"log"

	"repro/internal/explore"
	"repro/internal/machines"
)

const kernel = `
var i, s;
array a[32] in DM at 0 = { 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3,
                           2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5 };
array b[32] in DM at 64;
s = 0;
for i = 0 to 31 {
  b[i] = a[i] + a[i];
  s = s + b[i];
}
`

func main() {
	res, err := explore.New(machines.SPAM2Source, kernel,
		explore.WithMaxIters(6),
		explore.WithLog(func(ev explore.Event) { fmt.Println(ev.Line) }),
	).Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(res.Report())
	fmt.Printf("\nruntime %.2f -> %.2f us, area %.0f -> %.0f cells, power %.1f -> %.1f mW\n",
		res.Initial.RuntimeUs, res.Final.RuntimeUs,
		res.Initial.AreaCells, res.Final.AreaCells,
		res.Initial.PowerMW, res.Final.PowerMW)
}
