package isdl

import "testing"

const fpBase = `
Machine fptest;
Format 16;

Section Global_Definitions

Token reg "R" [0..3];
Non_Terminal src width 2 :
  option (r: reg)
    Encode { R[1:0] = r; }
    Value { GPR[r] }
;

Section Storage

RegFile GPR width 16 depth 4;
DataMemory DM width 16 depth 64;
InstructionMemory IM width 16 depth 64;
ProgramCounter PC width 16;
Register HLT width 1;

Section Instruction_Set

Field alu:
  op add (d: reg) (s: src)
    Encode { I[3:0] = 0b0001; I[5:4] = d; I[7:6] = s; }
    Action { GPR[d] <- GPR[d] + s; }
    Cost { Cycle = 1; Stall = 0; Size = 1; }
    Timing { Latency = 1; Usage = 1; }
  op halt
    Encode { I[3:0] = 0b1111; }
    Action { HLT <- 1; }
    Cost { Cycle = 1; Stall = 0; Size = 1; }
    Timing { Latency = 1; Usage = 1; }
`

func fpParse(t *testing.T, src string) *Description {
	t.Helper()
	d, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return d
}

func TestOpFingerprintStableAcrossParses(t *testing.T) {
	d1 := fpParse(t, fpBase)
	// Formatting-only differences must not change any fingerprint.
	d2 := fpParse(t, Format(d1))
	for fi := range d1.Fields {
		for oi := range d1.Fields[fi].Ops {
			op1, op2 := d1.Fields[fi].Ops[oi], d2.Fields[fi].Ops[oi]
			if OpFingerprint(op1) != OpFingerprint(op2) {
				t.Errorf("fingerprint of %s differs across parse/format round trip", op1.QualName())
			}
		}
	}
	if LayoutFingerprint(d1) != LayoutFingerprint(d2) {
		t.Error("layout fingerprint differs across parse/format round trip")
	}
}

func TestOpFingerprintIsolatesBodyChanges(t *testing.T) {
	d1 := fpParse(t, fpBase)
	// Change one operation's body; only that op's fingerprint may move.
	d2 := fpParse(t, fpBase)
	add := d2.Fields[0].ByName["add"]
	add.Timing.Latency = 2
	d2 = fpParse(t, Format(d2))

	if got, want := OpFingerprint(d2.Fields[0].ByName["add"]), OpFingerprint(d1.Fields[0].ByName["add"]); got == want {
		t.Error("changed op body did not change its fingerprint")
	}
	if got, want := OpFingerprint(d2.Fields[0].ByName["halt"]), OpFingerprint(d1.Fields[0].ByName["halt"]); got != want {
		t.Error("unchanged op's fingerprint moved when a sibling changed")
	}
	if LayoutFingerprint(d1) != LayoutFingerprint(d2) {
		t.Error("op body change moved the layout fingerprint")
	}
}

func TestOpFingerprintCoversReachableNonTerminals(t *testing.T) {
	d1 := fpParse(t, fpBase)
	// Editing a non-terminal an op uses must change that op's fingerprint:
	// the option's Value executes as part of the operation.
	d2 := fpParse(t, fpBase)
	d2.NonTerminals["src"].Options[0].Costs.Cycle = 1
	d2 = fpParse(t, Format(d2))

	if OpFingerprint(d2.Fields[0].ByName["add"]) == OpFingerprint(d1.Fields[0].ByName["add"]) {
		t.Error("non-terminal edit did not change the using op's fingerprint")
	}
	if OpFingerprint(d2.Fields[0].ByName["halt"]) != OpFingerprint(d1.Fields[0].ByName["halt"]) {
		t.Error("non-terminal edit changed an op that does not use it")
	}
}

func TestLayoutFingerprintSeesDepthChanges(t *testing.T) {
	d1 := fpParse(t, fpBase)
	d2 := fpParse(t, fpBase)
	d2.StorageByName["DM"].Depth = 32
	if LayoutFingerprint(d1) == LayoutFingerprint(d2) {
		t.Error("memory depth change did not move the layout fingerprint")
	}
}
