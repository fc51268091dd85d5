// Command hgen runs the hardware synthesis system of paper §4: it compiles
// an ISDL description into a synthesizable Verilog model and reports cycle
// length, die size and the area breakdown against the LSI10K-flavoured
// technology library (the Table 2 statistics).
//
// Usage:
//
//	hgen -m spam                       report synthesis statistics
//	hgen -m spam2 -o proc.v            also write the Verilog model
//	hgen -m spam -sharing off          ablation: disable resource sharing
//	hgen -m spam -decode comparator    ablation: naive decode logic
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/atomicfile"
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/tech"
)

func main() {
	machine := flag.String("m", "", "machine: .isdl file or builtin (toy, spam, spam2)")
	out := flag.String("o", "", "write the generated Verilog to this file")
	sharing := flag.String("sharing", "full", "resource sharing: off | rules | full")
	decodeStyle := flag.String("decode", "twolevel", "decode logic: twolevel | comparator")
	retime := flag.Float64("retime", 0, "retime pipelines toward this cycle length in ns (§6.2 pipeline optimization)")
	flag.Parse()
	if *machine == "" {
		fmt.Fprintln(os.Stderr, "usage: hgen -m <machine> [-o out.v] [-sharing off|rules|full] [-decode twolevel|comparator]")
		os.Exit(2)
	}
	src, err := machines.Source(*machine)
	if err != nil {
		fatal(err)
	}
	d, err := isdl.Parse(src)
	if err != nil {
		fatal(err)
	}

	if *retime > 0 {
		res, err := hgen.RetimeForCycle(d, tech.LSI10K(), *retime)
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.Report())
		d = res.Desc
		fmt.Println()
	}

	opts := hgen.DefaultOptions()
	switch *sharing {
	case "off":
		opts.Sharing = hgen.ShareOff
	case "rules":
		opts.Sharing = hgen.ShareRules
	case "full":
		opts.Sharing = hgen.ShareRulesAndConstraints
	default:
		fatal(fmt.Errorf("unknown sharing mode %q", *sharing))
	}
	switch *decodeStyle {
	case "twolevel":
		opts.Decode = hgen.DecodeTwoLevel
	case "comparator":
		opts.Decode = hgen.DecodeComparator
	default:
		fatal(fmt.Errorf("unknown decode style %q", *decodeStyle))
	}
	opts.EmitVerilog = true

	r, err := hgen.Synthesize(d, tech.LSI10K(), opts)
	if err != nil {
		// Machines with Stack storage or multi-word instructions still get
		// the cost model.
		opts.EmitVerilog = false
		r, err = hgen.Synthesize(d, tech.LSI10K(), opts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "hgen: note: Verilog model skipped (unsupported construct); cost model only")
	}
	fmt.Print(r.Report())
	if *out != "" {
		if r.VerilogText == "" {
			fatal(fmt.Errorf("no Verilog was generated"))
		}
		if err := atomicfile.WriteFile(*out, []byte(r.VerilogText), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d lines)\n", *out, r.VerilogLines)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hgen:", err)
	os.Exit(1)
}
