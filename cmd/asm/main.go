// Command asm is the retargetable assembler and disassembler of the
// exploration loop (paper Figure 1).
//
// Usage:
//
//	asm -m <machine> prog.s            assemble to prog.xbin
//	asm -m <machine> -o out.xbin prog.s
//	asm -m <machine> -d prog.xbin      disassemble
//	asm -m <machine> -l prog.s         print an address/hex listing
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/asm"
	"repro/internal/atomicfile"
	"repro/internal/isdl"
	"repro/internal/machines"
)

func main() {
	machine := flag.String("m", "", "machine: .isdl file or builtin (toy, spam, spam2)")
	out := flag.String("o", "", "output file (default: input with .xbin)")
	disasm := flag.Bool("d", false, "disassemble an .xbin file")
	listing := flag.Bool("l", false, "print a listing instead of writing output")
	flag.Parse()
	if *machine == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: asm -m <machine> [-d] [-l] [-o out] <file>")
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
	blob, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	if *disasm {
		p, err := asm.Unmarshal(d, blob)
		if err != nil {
			fatal(err)
		}
		fmt.Print(asm.DisassembleProgram(p))
		return
	}

	p, err := asm.Assemble(d, string(blob))
	if err != nil {
		fatal(err)
	}
	if *listing {
		fmt.Print(p.Listing())
		return
	}
	name := *out
	if name == "" {
		name = strings.TrimSuffix(flag.Arg(0), ".s") + ".xbin"
	}
	if err := atomicfile.WriteFile(name, asm.Marshal(p), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d words, %d symbols\n", name, len(p.Words), len(p.Symbols))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asm:", err)
	os.Exit(1)
}
