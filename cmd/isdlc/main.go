// Command isdlc validates an ISDL machine description and reports its
// structure: storage, fields, operation signatures (Figure 3) and
// constraints. With -format it pretty-prints the canonical source.
//
// Usage:
//
//	isdlc [-format] <machine>
//
// where <machine> is an .isdl file or a builtin name (toy, spam, spam2).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/isdl"
	"repro/internal/machines"
)

func main() {
	format := flag.Bool("format", false, "print the canonical ISDL source")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: isdlc [-format] <machine.isdl | toy | spam | spam2>")
		os.Exit(2)
	}
	var d *isdl.Description
	src, err := machines.Source(flag.Arg(0))
	if err == nil {
		d, err = isdl.Parse(src)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "isdlc:", err)
		os.Exit(1)
	}
	if *format {
		fmt.Print(isdl.Format(d))
		return
	}

	fmt.Printf("machine %s: %d-bit instruction word, %d fields\n", d.Name, d.WordWidth, len(d.Fields))
	fmt.Println("\nstorage:")
	for _, st := range d.Storage {
		if st.Kind.Addressed() {
			fmt.Printf("  %-18s %-18s %d x %d bits\n", st.Name, st.Kind, st.Depth, st.Width)
		} else {
			fmt.Printf("  %-18s %-18s %d bits\n", st.Name, st.Kind, st.Width)
		}
	}
	for _, a := range d.Aliases {
		fmt.Printf("  %-18s alias of %s\n", a.Name, a.Target)
	}
	fmt.Println("\ninstruction set:")
	for _, f := range d.Fields {
		fmt.Printf("  field %s (%d operations)\n", f.Name, len(f.Ops))
		for _, op := range f.Ops {
			fmt.Printf("    %-8s %s  cycle=%d stall=%d size=%d latency=%d usage=%d\n",
				op.Name, op.Sig.String(),
				op.Costs.Cycle, op.Costs.Stall, op.Costs.Size, op.Timing.Latency, op.Timing.Usage)
		}
	}
	if len(d.Constraints) > 0 {
		fmt.Println("\nconstraints:")
		for _, c := range d.Constraints {
			fmt.Printf("  %s\n", c.Text)
		}
	}
}
