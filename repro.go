// Package repro reproduces "A Methodology for Accurate Performance
// Evaluation in Architecture Exploration" (Hadjiyiannis, Russo, Devadas;
// DAC 1999): the ISDL machine description language and the design-evaluation
// tools generated from it — a cycle-accurate bit-true instruction-level
// simulator (GENSIM/XSIM), a hardware implementation model with die size,
// cycle length and power (HGEN), a retargetable assembler/disassembler, a
// retargetable compiler, and the architecture-exploration loop that ties
// them together.
//
// This package is the stable facade over the implementation packages:
//
//	desc, err := repro.ParseISDL(src)          // §2  ISDL
//	prog, err := repro.Assemble(desc, asmText) // retargetable assembler
//	sim := repro.NewSimulator(desc)            // §3  GENSIM/XSIM
//	hw, err := repro.Synthesize(desc, nil)     // §4  HGEN
//	eval, err := repro.Evaluate(desc, prog)    // the paper's methodology
//
// Ready-made machines live in Machines(): the paper's SPAM and SPAM2, a
// small teaching machine ("toy"), and a single-issue RISC ("risc32"). See
// DESIGN.md for the system inventory and EXPERIMENTS.md for the Table 1 /
// Table 2 reproduction.
package repro

import (
	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/tech"
	"repro/internal/xsim"
)

// Re-exported core types. The aliases make the internal packages' documented
// types part of the public surface without duplicating them.
type (
	// Description is a parsed, validated ISDL machine description.
	Description = isdl.Description
	// Program is an assembled program image.
	Program = asm.Program
	// Simulator is a generated cycle-accurate, bit-true ILS.
	Simulator = xsim.Simulator
	// Session is the simulator's command/batch interface.
	Session = xsim.Session
	// Stats are the simulator's utilization statistics.
	Stats = xsim.Stats
	// Synthesis is the HGEN hardware implementation model.
	Synthesis = hgen.Result
	// SynthesisOptions configure HGEN (sharing mode, decode style).
	SynthesisOptions = hgen.Options
	// Library is a technology cost model.
	Library = tech.Library
	// Evaluation combines simulator and hardware figures for one
	// candidate and workload.
	Evaluation = core.Evaluation
	// ExplorationConfig is the option-built exploration configuration
	// behind NewExploration.
	ExplorationConfig = explore.Config
	// ExplorationOption configures NewExploration (explore.WithWorkers,
	// explore.WithBeam, explore.WithRestarts, ...).
	ExplorationOption = explore.Option
	// SearchStrategy picks the exploration walk: explore.HillClimb,
	// explore.Beam or explore.Restarts.
	SearchStrategy = explore.Strategy
	// ExplorationResult is an exploration run's history and outcome.
	ExplorationResult = explore.Result
)

// NewExploration builds an architecture exploration over a base ISDL
// description and kernel. Without options it hill-climbs with default
// weights; see package explore for the strategy and tuning options:
//
//	res, err := repro.NewExploration(base, kernel,
//	        explore.WithBeam(4), explore.WithRestarts(3, 1)).Run()
func NewExploration(base, kernel string, opts ...ExplorationOption) *ExplorationConfig {
	return explore.New(base, kernel, opts...)
}

// ParseISDL parses and validates an ISDL description (paper §2; grammar in
// docs/ISDL.md).
func ParseISDL(src string) (*Description, error) { return isdl.Parse(src) }

// FormatISDL renders a description back to ISDL source text.
func FormatISDL(d *Description) string { return isdl.Format(d) }

// Assemble assembles text for the described machine.
func Assemble(d *Description, src string) (*Program, error) { return asm.Assemble(d, src) }

// MarshalProgram and UnmarshalProgram exchange the XBIN object format.
func MarshalProgram(p *Program) []byte { return asm.Marshal(p) }

// UnmarshalProgram parses XBIN text against a description.
func UnmarshalProgram(d *Description, data []byte) (*Program, error) {
	return asm.Unmarshal(d, data)
}

// Disassemble renders a whole program as re-assemblable text.
func Disassemble(p *Program) string { return asm.DisassembleProgram(p) }

// NewSimulator builds the generated instruction-level simulator (§3).
func NewSimulator(d *Description) *Simulator { return xsim.New(d) }

// LSI10K returns the default technology library (the LSI 10K flavoured cost
// model behind Table 2).
func LSI10K() *Library { return tech.LSI10K() }

// DefaultSynthesisOptions is the paper's configuration: full resource
// sharing, two-level decode, Verilog emission.
func DefaultSynthesisOptions() SynthesisOptions { return hgen.DefaultOptions() }

// Synthesize runs HGEN (§4). A nil library selects LSI10K.
func Synthesize(d *Description, lib *Library, opts SynthesisOptions) (*Synthesis, error) {
	if lib == nil {
		lib = tech.LSI10K()
	}
	return hgen.Synthesize(d, lib, opts)
}

// Compile compiles kernel-language source (see internal/compiler) to
// assembly for the described machine.
func Compile(d *Description, kernel string) (string, error) { return compiler.Compile(d, kernel) }

// Evaluate runs the paper's methodology for one candidate and workload.
func Evaluate(d *Description, p *Program, workload string) (*Evaluation, error) {
	return core.NewEvaluator().Evaluate(d, p, workload)
}

// Machines returns the bundled ISDL descriptions by name — the machine zoo:
// "toy" (a small teaching machine), "spam" (the paper's 4-way VLIW with 3
// parallel moves), "spam2" (the simpler 3-way VLIW), "risc32" (a
// single-issue load/store RISC) and "riscv5" (a 5-stage pipelined RISC with
// load-use and branch stalls, demonstrating ISDL's timing model).
func Machines() map[string]string {
	srcs := make(map[string]string)
	for _, e := range machines.Zoo() {
		srcs[e.Name] = e.Source
	}
	return srcs
}
