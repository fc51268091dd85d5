package hgen_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cosim"
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/verilog"
	"repro/internal/xsim"
)

// gauntletSource exercises every RTL builtin and lvalue shape through the
// Verilog generator: carry/overflow flags, arithmetic shift, the signed
// comparisons, byte swaps via concat and slices, sign extension, alias and
// part-select writes, and if/else actions — the constructs the SPAM2
// co-simulation does not reach.
const gauntletSource = `
Machine gauntlet;
Format 32;

Section Global_Definitions

Token GPR "R" [0..15];
Token IMM8 imm signed 8;

Section Storage

InstructionMemory IMEM width 32 depth 128;
RegFile RF width 16 depth 16;
Register ACC width 24;
ControlRegister FL width 4;
ControlRegister HLT width 1;
ProgramCounter PC width 7;
Alias ACHI = ACC[23:16];
Alias ACLO = ACC[15:0];

Section Instruction_Set

Field EX:
  op addc (d: GPR) "," (a: GPR) "," (b: GPR)
    Encode { I[31:27] = 0b00000; I[26:23] = d; I[22:19] = a; I[18:15] = b; }
    Action { RF[d] <- RF[a] + RF[b]; }
    SideEffect { FL[0:0] <- carry(RF[a], RF[b]); FL[1:1] <- addov(RF[a], RF[b]); }
  op subb (d: GPR) "," (a: GPR) "," (b: GPR)
    Encode { I[31:27] = 0b00001; I[26:23] = d; I[22:19] = a; I[18:15] = b; }
    Action { RF[d] <- RF[a] - RF[b]; }
    SideEffect { FL[2:2] <- borrow(RF[a], RF[b]); FL[3:3] <- subov(RF[a], RF[b]); }
  op sasr (d: GPR) "," (a: GPR) "," (b: GPR)
    Encode { I[31:27] = 0b00010; I[26:23] = d; I[22:19] = a; I[18:15] = b; }
    Action { RF[d] <- asr(RF[a], RF[b] & 15); }
  op scmp (d: GPR) "," (a: GPR) "," (b: GPR)
    Encode { I[31:27] = 0b00011; I[26:23] = d; I[22:19] = a; I[18:15] = b; }
    Action { RF[d] <- zext(concat(slt(RF[a], RF[b]), sle(RF[a], RF[b]), sgt(RF[a], RF[b]), sge(RF[a], RF[b])), 16); }
  op swap (d: GPR) "," (a: GPR)
    Encode { I[31:27] = 0b00100; I[26:23] = d; I[22:19] = a; }
    Action { RF[d] <- concat(RF[a][7:0], RF[a][15:8]); }
  op sxtb (d: GPR) "," (a: GPR)
    Encode { I[31:27] = 0b00101; I[26:23] = d; I[22:19] = a; }
    Action { RF[d] <- sext(trunc(RF[a], 8), 16); }
  op acch (a: GPR)
    Encode { I[31:27] = 0b00110; I[22:19] = a; }
    Action { ACHI <- trunc(RF[a], 8); }
  op accl (a: GPR)
    Encode { I[31:27] = 0b00111; I[22:19] = a; }
    Action { ACLO <- RF[a]; }
  op mvac (d: GPR)
    Encode { I[31:27] = 0b01000; I[26:23] = d; }
    Action { RF[d] <- ACLO; }
  op selp (d: GPR) "," (a: GPR) "," (b: GPR)
    Encode { I[31:27] = 0b01001; I[26:23] = d; I[22:19] = a; I[18:15] = b; }
    Action { if (slt(RF[a], RF[b])) { RF[d] <- RF[a]; } else { RF[d] <- RF[b]; } }
  op half (d: GPR) "," (a: GPR)
    Encode { I[31:27] = 0b01010; I[26:23] = d; I[22:19] = a; }
    Action { RF[d][7:0] <- trunc(RF[a] >> 1, 8); }
  op ldi (d: GPR) "," (i: IMM8)
    Encode { I[31:27] = 0b01011; I[26:23] = d; I[7:0] = i; }
    Action { RF[d] <- sext(i, 16); }
  op halt
    Encode { I[31:27] = 0b11110; }
    Action { HLT <- 0b1; }
  op nop
    Encode { I[31:27] = 0b11111; }
`

// TestGauntletCosim lock-steps random gauntlet programs on the ILS and on
// the event-driven simulation of the generated Verilog, comparing every
// storage element after every instruction. The programs are generated
// serially (one rand stream, so the trial set is reproducible), then the
// six trials run concurrently on the cosim pool — each with its own
// xsim.Simulator and verilog.Sim over the shared parsed Module, which is
// exactly the read-only sharing the pool's safety rests on. Run under
// -race by the CI race job.
func TestGauntletCosim(t *testing.T) {
	d, err := isdl.Parse(gauntletSource)
	if err != nil {
		t.Fatal(err)
	}
	r := synth(t, d, hgen.DefaultOptions())
	mod, err := verilog.Parse(r.VerilogText)
	if err != nil {
		t.Fatal(err)
	}

	const trials = 6
	ops3 := []string{"addc", "subb", "sasr", "scmp", "selp"}
	ops2 := []string{"swap", "sxtb", "half"}
	rnd := rand.New(rand.NewSource(11))
	progs := make([]*asm.Program, trials)
	texts := make([]string, trials)
	for trial := 0; trial < trials; trial++ {
		var lines []string
		for len(lines) < 30 {
			switch rnd.Intn(5) {
			case 0:
				lines = append(lines, fmt.Sprintf("ldi R%d, %d", rnd.Intn(16), rnd.Intn(256)-128))
			case 1:
				op := ops3[rnd.Intn(len(ops3))]
				lines = append(lines, fmt.Sprintf("%s R%d, R%d, R%d", op, rnd.Intn(16), rnd.Intn(16), rnd.Intn(16)))
			case 2:
				op := ops2[rnd.Intn(len(ops2))]
				lines = append(lines, fmt.Sprintf("%s R%d, R%d", op, rnd.Intn(16), rnd.Intn(16)))
			case 3:
				lines = append(lines, fmt.Sprintf("acch R%d", rnd.Intn(16)), fmt.Sprintf("accl R%d", rnd.Intn(16)))
			default:
				lines = append(lines, fmt.Sprintf("mvac R%d", rnd.Intn(16)))
			}
		}
		lines = append(lines, "halt")
		texts[trial] = strings.Join(lines, "\n")
		progs[trial], err = asm.Assemble(d, texts[trial])
		if err != nil {
			t.Fatal(err)
		}
	}

	pool := &cosim.Pool{Workers: runtime.NumCPU()}
	_, err = pool.Run("gauntlet", trials, func(trial int, l *cosim.Lane) error {
		p := progs[trial]
		ils := xsim.New(d)
		if err := ils.Load(p); err != nil {
			return err
		}
		var hw *verilog.Sim
		err := l.Setup(func() error {
			var err error
			hw, err = verilog.NewSim(mod)
			if err != nil {
				return err
			}
			for i, w := range p.Words {
				if err := hw.SetMem("s_IMEM", i, w); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		return l.Sim(func() error {
			for step := 0; !ils.Halted(); step++ {
				if err := ils.Step(); err != nil {
					return fmt.Errorf("trial %d step %d: %v\n%s", trial, step, err, texts[trial])
				}
				ils.FlushPending()
				if err := hw.Tick("clk"); err != nil {
					return fmt.Errorf("trial %d step %d: %v", trial, step, err)
				}
				l.AddCycles(1)
				if err := stateDiff(d, ils, hw); err != nil {
					return fmt.Errorf("trial %d step %d: %v\n%s", trial, step, err, texts[trial])
				}
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGauntletBuiltinsAgainstGo spot-checks a few builtins against direct Go
// arithmetic through the ILS (the co-simulation above then extends the
// check to the hardware model).
func TestGauntletBuiltinsAgainstGo(t *testing.T) {
	d, err := isdl.Parse(gauntletSource)
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(d, `
    ldi R1, -100
    ldi R2, 3
    sasr R3, R1, R2      ; -100 >> 3 = -13
    scmp R4, R1, R2      ; slt sle sgt sge = 1,1,0,0 -> 0b1100
    swap R5, R1          ; 0xff9c -> 0x9cff
    sxtb R6, R5          ; sext(0xff) = 0xffff
    half R7, R2          ; R7[7:0] = 1
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	get := func(i int) uint64 { return sim.State().Get("RF", i).Uint64() }
	if got := sim.State().Get("RF", 3).Int64(); got != -13 {
		t.Errorf("asr: %d, want -13", got)
	}
	if got := get(4); got != 0b1100 {
		t.Errorf("scmp: %#b, want 0b1100", got)
	}
	if got := get(5); got != 0x9cff {
		t.Errorf("swap: %#x", got)
	}
	if got := get(6); got != 0xffff {
		t.Errorf("sxtb: %#x", got)
	}
	if got := get(7); got != 1 {
		t.Errorf("half: %d", got)
	}
}

// TestLoadProgramRenamedInstructionMemory: ISDL lets the instruction memory
// have any name, and HGEN names its net after it. LoadProgram must follow
// the description, place the words at the program's base address and load
// the data initializers; the loaded model must then run to halt in lockstep
// with XSIM and end with the same storage contents.
func TestLoadProgramRenamedInstructionMemory(t *testing.T) {
	d, err := isdl.Parse(strings.Replace(machines.ToySource,
		"InstructionMemory IMEM", "InstructionMemory PMEM", 1))
	if err != nil {
		t.Fatal(err)
	}
	r := synth(t, d, hgen.DefaultOptions())
	m, err := verilog.Parse(r.VerilogText)
	if err != nil {
		t.Fatal(err)
	}
	const program = `
    .data DMEM 4 7, 9, 11
    mv R1, #4
    mv R2, #0
    mv R3, #7
loop:
    ld R4, @R1
    add R2, R2, R4
    add R1, R1, #1
    beq R1, R3, done
    jmp loop
done:
    st @R3, R2
    halt
`
	p, err := asm.Assemble(d, program)
	if err != nil {
		t.Fatal(err)
	}
	ils := xsim.New(d)
	if err := ils.Load(p); err != nil {
		t.Fatal(err)
	}
	hw, err := verilog.NewSim(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := hgen.LoadProgram(hw, p); err != nil {
		t.Fatal(err)
	}
	for step := 0; !ils.Halted(); step++ {
		if step > 100 {
			t.Fatal("no halt within 100 instructions")
		}
		if err := ils.Step(); err != nil {
			t.Fatal(err)
		}
		ils.FlushPending()
		if err := hw.Tick("clk"); err != nil {
			t.Fatal(err)
		}
	}
	if hv, err := hw.Get("halted"); err != nil || hv.Uint64() != 1 {
		t.Fatalf("hardware model did not halt (%v)", err)
	}
	if err := stateDiff(d, ils, hw); err != nil {
		t.Fatal(err)
	}
	if got := ils.State().Get("DMEM", 7).Uint64(); got != 27 {
		t.Fatalf("DMEM[7] = %d, want 27", got)
	}

	// A program assembled at a non-zero origin lands at that origin.
	p, err = asm.Assemble(d, ".org 16\n"+program)
	if err != nil {
		t.Fatal(err)
	}
	if hw, err = verilog.NewSim(m); err != nil {
		t.Fatal(err)
	}
	if err := hgen.LoadProgram(hw, p); err != nil {
		t.Fatal(err)
	}
	for i, w := range p.Words {
		got, err := hw.GetMem("s_PMEM", 16+i)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Eq(w) {
			t.Fatalf("PMEM[%d] = %s, want %s", 16+i, got, w)
		}
	}
}
