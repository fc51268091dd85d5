package machines_test

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/machines"
	"repro/internal/xsim"
)

func TestToyParses(t *testing.T) {
	d := machines.Toy()
	if d.Name != "toy" || len(d.Fields) != 1 {
		t.Fatalf("toy: %s, %d fields", d.Name, len(d.Fields))
	}
}

func TestSPAMParses(t *testing.T) {
	d := machines.SPAM()
	if d.Name != "spam" {
		t.Fatalf("name %q", d.Name)
	}
	// 4 operation fields + 3 parallel move fields, as the paper states.
	if len(d.Fields) != 7 { // ALU MAC BR ALU2 MV1 MV2 MV3
		t.Fatalf("fields: %d, want 7", len(d.Fields))
	}
	if d.WordWidth != 96 {
		t.Fatalf("width: %d", d.WordWidth)
	}
	if len(d.Constraints) != 5 {
		t.Fatalf("constraints: %d", len(d.Constraints))
	}
	mul := d.FieldByName("MAC").ByName["mul"]
	if mul.Costs.Stall != 2 || mul.Timing.Latency != 3 {
		t.Fatalf("mul timing: %+v %+v", mul.Costs, mul.Timing)
	}
}

func TestSPAM2Parses(t *testing.T) {
	d := machines.SPAM2()
	if d.Name != "spam2" || len(d.Fields) != 3 || d.WordWidth != 48 {
		t.Fatalf("spam2: %s, %d fields, %d bits", d.Name, len(d.Fields), d.WordWidth)
	}
}

// TestSPAMSmallerThanSPAM2 pins the relative complexity the Table 2 shape
// depends on.
func TestSPAMBiggerThanSPAM2(t *testing.T) {
	spam, spam2 := machines.SPAM(), machines.SPAM2()
	nSpam, nSpam2 := 0, 0
	for _, f := range spam.Fields {
		nSpam += len(f.Ops)
	}
	for _, f := range spam2.Fields {
		nSpam2 += len(f.Ops)
	}
	if nSpam <= nSpam2 {
		t.Fatalf("SPAM (%d ops) should be larger than SPAM2 (%d ops)", nSpam, nSpam2)
	}
}

func TestRISC32Parses(t *testing.T) {
	d := machines.RISC32()
	if d.Name != "risc32" || len(d.Fields) != 1 || d.WordWidth != 32 {
		t.Fatalf("risc32: %s, %d fields, %d bits", d.Name, len(d.Fields), d.WordWidth)
	}
	if d.StorageByName["RF"].Depth != 32 {
		t.Fatal("register file should have 32 entries")
	}
}

func TestWorkloadGenerators(t *testing.T) {
	// FIR reference model basics.
	samples, coefs := machines.FIRTestVectors(4, 2)
	if len(samples) != 6 || len(coefs) != 4 {
		t.Fatalf("vector sizes: %d %d", len(samples), len(coefs))
	}
	want0 := uint32(samples[0]*coefs[0] + samples[1]*coefs[1] + samples[2]*coefs[2] + samples[3]*coefs[3])
	if got := machines.FIRReference(4, 2, samples, coefs)[0]; got != want0 {
		t.Fatalf("FIRReference[0] = %d, want %d", got, want0)
	}

	// Dot product reference.
	x := []int64{2, 3}
	y := []int64{4, 5}
	if got := machines.DotReference(2, x, y); got != 23 {
		t.Fatalf("DotReference = %d", got)
	}

	// VecAdd reference with 16-bit wrap.
	a := []int64{65535, 1}
	b := []int64{2, 2}
	c, sum := machines.VecAddReference(2, a, b)
	if c[0] != 1 || c[1] != 3 || sum != 4 {
		t.Fatalf("VecAddReference = %v, %d", c, sum)
	}

	// Generator guards.
	for name, f := range map[string]func(){
		"fir short samples": func() { machines.FIRSPAM(8, 8, make([]int64, 4), make([]int64, 8)) },
		"vec too long":      func() { machines.VecAddSPAM2(200, make([]int64, 200), make([]int64, 200)) },
		"dot short":         func() { machines.DotSPAM(4, make([]int64, 2), make([]int64, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestWorkloadSourcesAssemble keeps every generator's output assemblable.
func TestWorkloadSourcesAssemble(t *testing.T) {
	spam := machines.SPAM()
	spam2 := machines.SPAM2()
	s, c := machines.FIRTestVectors(8, 8)
	if _, err := asm.Assemble(spam, machines.FIRSPAM(8, 8, s, c)); err != nil {
		t.Fatal(err)
	}
	x, y := machines.VecTestVectors(8)
	if _, err := asm.Assemble(spam, machines.DotSPAM(8, x, y)); err != nil {
		t.Fatal(err)
	}
	if _, err := asm.Assemble(spam2, machines.VecAddSPAM2(8, x, y)); err != nil {
		t.Fatal(err)
	}
}

func TestRISCV5Parses(t *testing.T) {
	d := machines.RISCV5()
	if d.Name != "riscv5" || len(d.Fields) != 1 || d.WordWidth != 32 {
		t.Fatalf("riscv5: %s, %d fields, %d bits", d.Name, len(d.Fields), d.WordWidth)
	}
	if d.StorageByName["RF"].Depth != 32 || d.StorageByName["DMEM"].Depth != 1024 {
		t.Fatal("riscv5 should have 32 registers and 1024 data words")
	}
	ex := d.FieldByName("EX")
	if lw := ex.ByName["lw"]; lw.Timing.Latency != 2 {
		t.Fatalf("lw latency = %d, want 2 (load-use stall)", lw.Timing.Latency)
	}
	if mul := ex.ByName["mul"]; mul.Timing.Latency != 3 {
		t.Fatalf("mul latency = %d, want 3 (unbypassed multiplier)", mul.Timing.Latency)
	}
	if beq := ex.ByName["beq"]; beq.Timing.Usage != 2 {
		t.Fatalf("beq usage = %d, want 2 (branch bubble)", beq.Timing.Usage)
	}
}

func TestZoo(t *testing.T) {
	want := []string{"toy", "risc32", "riscv5", "spam", "spam2"}
	got := machines.ZooNames()
	if len(got) != len(want) {
		t.Fatalf("zoo = %v, want %v", got, want)
	}
	for i, n := range want {
		if got[i] != n {
			t.Fatalf("zoo = %v, want %v", got, want)
		}
	}
	for _, e := range machines.Zoo() {
		d, err := machines.ByName(e.Name)
		if err != nil {
			t.Fatal(err)
		}
		if d.Name != e.Name {
			t.Fatalf("ByName(%q) parsed machine %q", e.Name, d.Name)
		}
	}
	if _, err := machines.ByName("nonesuch"); err == nil {
		t.Fatal("ByName should reject unknown machines")
	}
}

// TestSource: a command's machine argument is a zoo name or an ISDL file
// path; a mistyped name must say which machines exist, not only that no
// file by that name exists.
func TestSource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mine.isdl")
	if err := os.WriteFile(path, []byte(machines.ToySource), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, arg, want, errHas string
	}{
		{name: "zoo", arg: "spam", want: machines.SPAMSource},
		{name: "file", arg: path, want: machines.ToySource},
		{name: "missing", arg: "spamm", errHas: `unknown machine "spamm" (have [risc32 riscv5 spam spam2 toy])`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, err := machines.Source(tc.arg)
			if tc.errHas != "" {
				if err == nil || !strings.Contains(err.Error(), tc.errHas) {
					t.Fatalf("Source(%q) error = %v, want it to contain %q", tc.arg, err, tc.errHas)
				}
				if !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("Source(%q) error %v should wrap the file error", tc.arg, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if src != tc.want {
				t.Fatalf("Source(%q) returned the wrong description", tc.arg)
			}
		})
	}
}

// runRISCV5 assembles and runs src on riscv5, returning the simulator.
func runRISCV5(t *testing.T, src string) *xsim.Simulator {
	t.Helper()
	d := machines.RISCV5()
	p, err := asm.Assemble(d, src)
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(100000); err != nil {
		t.Fatal(err)
	}
	if !sim.Halted() {
		t.Fatal("program did not halt")
	}
	return sim
}

// TestRISCV5PipelineStalls pins the three timing behaviours the description
// models: the load-use stall, the unbypassed-multiplier latency, and the
// one-bubble branch penalty. Each case pairs a dependent sequence with an
// independent one so the test measures the stall, not the baseline.
func TestRISCV5PipelineStalls(t *testing.T) {
	// Load-use: the add consumes R2 the cycle after lw produces it in MEM.
	dep := runRISCV5(t, "li R1, 5\n sw R1, 0(R0)\n lw R2, 0(R0)\n add R3, R2, R2\n halt")
	indep := runRISCV5(t, "li R1, 5\n sw R1, 0(R0)\n lw R2, 0(R0)\n add R3, R1, R1\n halt")
	if got := dep.Stats().DataStalls - indep.Stats().DataStalls; got != 1 {
		t.Errorf("load-use stall = %d, want 1 (dep %d, indep %d)",
			got, dep.Stats().DataStalls, indep.Stats().DataStalls)
	}
	if got := dep.State().Get("RF", 3).Uint64(); got != 10 {
		t.Errorf("R3 = %d, want 10", got)
	}

	// Multiplier: latency 3 costs an immediate consumer two stall cycles.
	mdep := runRISCV5(t, "li R1, 6\n li R2, 7\n mul R3, R1, R2\n add R4, R3, R3\n halt")
	mindep := runRISCV5(t, "li R1, 6\n li R2, 7\n mul R3, R1, R2\n add R4, R1, R1\n halt")
	if got := mdep.Stats().DataStalls - mindep.Stats().DataStalls; got != 2 {
		t.Errorf("mul-use stalls = %d, want 2 (dep %d, indep %d)",
			got, mdep.Stats().DataStalls, mindep.Stats().DataStalls)
	}
	if got := mdep.State().Get("RF", 4).Uint64(); got != 84 {
		t.Errorf("R4 = %d, want 84", got)
	}

	// Branch bubble: every control transfer holds the issue slot an extra
	// cycle (Usage 2), taken or not.
	br := runRISCV5(t, "beq R0, R0, 2\n nop\n bne R0, R0, 4\n nop\n halt")
	if br.Stats().StructStalls == 0 {
		t.Error("branches should cost structural stall cycles (branch bubble)")
	}
	nobr := runRISCV5(t, "nop\n nop\n nop\n nop\n halt")
	if nobr.Stats().StructStalls != 0 {
		t.Errorf("straight-line code has %d structural stalls, want 0", nobr.Stats().StructStalls)
	}
	if br.Stats().Cycles <= nobr.Stats().Cycles {
		t.Errorf("branchy code (%d cycles) should be slower than straight-line (%d)",
			br.Stats().Cycles, nobr.Stats().Cycles)
	}
}
