// Quickstart: describe a tiny processor in ISDL, generate its simulator,
// assemble a program, and run it — the core loop of the paper in ~100 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/isdl"
	"repro/internal/xsim"
)

// A minimal accumulator machine: 8-bit datapath, one field, five operations.
const machine = `
Machine acc8;
Format 16;

Section Global_Definitions

Token GPR "R" [0..3];
Token IMM8 imm signed 8;

Non_Terminal SRC width 9 :
  option (r: GPR)
    Encode { R[8] = 0b0; R[7:2] = 0b000000; R[1:0] = r; }
    Value { RF[r] }
  option "#" (i: IMM8)
    Encode { R[8] = 0b1; R[7:0] = i; }
    Value { i }
;

Section Storage

InstructionMemory IMEM width 16 depth 64;
RegFile RF width 8 depth 4;
ControlRegister HLT width 1;
ProgramCounter PC width 6;

Section Instruction_Set

Field EX:
  op add (d: GPR) "," (a: GPR) "," (s: SRC)
    Encode { I[15:13] = 0b000; I[12:11] = d; I[10:9] = a; I[8:0] = s; }
    Action { RF[d] <- RF[a] + s; }
  op mv (d: GPR) "," (s: SRC)
    Encode { I[15:13] = 0b001; I[12:11] = d; I[8:0] = s; }
    Action { RF[d] <- s; }
  op bne (a: GPR) "," (b: GPR) "," (t: IMM8)
    Encode { I[15:13] = 0b010; I[12:11] = a; I[10:9] = b; I[7:0] = t; }
    Action { if (RF[a] != RF[b]) { PC <- zext(t, 6); } }
  op halt
    Encode { I[15:13] = 0b011; }
    Action { HLT <- 0b1; }
  op nop
    Encode { I[15:13] = 0b111; }
`

// Sum the numbers 1..10 into R1.
const program = `
    mv R1, #0      ; sum
    mv R2, #10     ; counter
    mv R3, #0      ; zero
loop:
    add R1, R1, R2
    add R2, R2, #-1
    bne R2, R3, loop
    halt
`

func main() {
	d, err := isdl.Parse(machine)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("machine %s: %d-bit instructions, %d operations\n",
		d.Name, d.WordWidth, len(d.Fields[0].Ops))

	p, err := asm.Assemble(d, program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assembled %d words; disassembly round trip:\n%s\n",
		len(p.Words), asm.DisassembleProgram(p))

	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		log.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("halted after %d cycles; R1 = %d (want 55)\n",
		sim.Cycle(), sim.State().Get("RF", 1).Uint64())
	fmt.Println()
	fmt.Print(sim.Stats().Summary(d))
}
