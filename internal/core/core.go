// Package core implements the paper's primary contribution: accurate
// performance evaluation for architecture exploration. For one candidate
// architecture (an ISDL description) and one application workload it
// combines the two automatically generated models —
//
//   - the cycle count, stalls and utilization statistics measured by the
//     GENSIM instruction-level simulator (internal/xsim), and
//   - the cycle length, die size and power obtained from the HGEN hardware
//     implementation model (internal/hgen + internal/tech)
//
// into the figures the exploration loop of Figure 1 ranks candidates by:
// run time = cycles × cycle length, silicon cost, and power consumption.
package core

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/tech"
	"repro/internal/xsim"
)

// Evaluation is the complete figure of merit for one (architecture,
// workload) pair.
type Evaluation struct {
	Machine  string
	Workload string

	// From the instruction-level simulator.
	Cycles       uint64
	Instructions uint64
	Stats        *xsim.Stats

	// From the hardware model.
	CycleNs   float64
	AreaCells float64
	Hardware  *hgen.Result

	// Combined figures.
	RuntimeUs float64 // cycles × cycle length
	PowerMW   float64 // activity-scaled dynamic + leakage
	// EnergyUJ is the energy of the whole run.
	EnergyUJ float64
}

// Score folds the evaluation into a single scalar for hill climbing: run
// time weighted against area and power. Lower is better.
func (e *Evaluation) Score(runtimeWeight, areaWeight, powerWeight float64) float64 {
	return runtimeWeight*e.RuntimeUs + areaWeight*e.AreaCells/1e4 + powerWeight*e.PowerMW
}

// Summary renders the evaluation report.
func (e *Evaluation) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "machine %s running %s\n", e.Machine, e.Workload)
	fmt.Fprintf(&sb, "  cycles:       %d (%d instructions, %d data + %d structural stalls)\n",
		e.Cycles, e.Instructions, e.Stats.DataStalls, e.Stats.StructStalls)
	fmt.Fprintf(&sb, "  cycle length: %.1f ns\n", e.CycleNs)
	fmt.Fprintf(&sb, "  run time:     %.2f us\n", e.RuntimeUs)
	fmt.Fprintf(&sb, "  die size:     %.0f grid cells\n", e.AreaCells)
	fmt.Fprintf(&sb, "  power:        %.1f mW (%.2f uJ for the run)\n", e.PowerMW, e.EnergyUJ)
	return sb.String()
}

// Evaluator configures the methodology.
type Evaluator struct {
	// Lib is the implementation technology; defaults to tech.LSI10K().
	Lib *tech.Library
	// Synthesis options; Verilog emission is off by default here because
	// the exploration loop only needs the cost model (the hardware model
	// is still fully generatable via internal/hgen).
	Synthesis hgen.Options
	// MaxInstructions bounds a single simulation (0 = one hundred million,
	// a backstop against non-halting candidates).
	MaxInstructions int64
	// SimBackend selects the simulator execution strategy (interp,
	// compiled, aot); empty is the compiled default. The aot backend
	// generates and natively compiles a specialized simulator per
	// description (internal/gensim) and falls back to compiled when the
	// toolchain is unavailable or the description is unsupported, so
	// setting it never makes an evaluation fail.
	SimBackend xsim.Backend
}

// NewEvaluator returns an evaluator with the paper's defaults.
func NewEvaluator() *Evaluator {
	opts := hgen.DefaultOptions()
	opts.EmitVerilog = false
	return &Evaluator{Lib: tech.LSI10K(), Synthesis: opts}
}

// Evaluate runs the full methodology for one candidate and workload.
func (ev *Evaluator) Evaluate(d *isdl.Description, prog *asm.Program, workload string) (*Evaluation, error) {
	cycles, stats, err := runSimulation(d, prog, ev.MaxInstructions, workload, ev.SimBackend, nil)
	if err != nil {
		return nil, err
	}

	hw, err := hgen.Synthesize(d, ev.Lib, ev.Synthesis)
	if err != nil {
		return nil, fmt.Errorf("core: synthesize: %w", err)
	}

	return combine(d.Name, workload, cycles, stats, hw, ev.Lib), nil
}

// EvaluateSource is the convenience entry point over raw text: the ISDL
// description and the assembly workload.
func (ev *Evaluator) EvaluateSource(isdlText, asmText, workload string) (*Evaluation, error) {
	d, err := isdl.Parse(isdlText)
	if err != nil {
		return nil, fmt.Errorf("core: parse ISDL: %w", err)
	}
	prog, err := asm.Assemble(d, asmText)
	if err != nil {
		return nil, fmt.Errorf("core: assemble: %w", err)
	}
	return ev.Evaluate(d, prog, workload)
}

// Combine folds a finished simulation and a synthesized hardware model into
// the evaluation figures. It is exported so callers that already ran the
// simulator (e.g. with breakpoints or traces) can reuse the methodology.
func Combine(d *isdl.Description, workload string, sim *xsim.Simulator, hw *hgen.Result, lib *tech.Library) *Evaluation {
	return combine(d.Name, workload, sim.Cycle(), sim.Stats(), hw, lib)
}

// combine is pure arithmetic over a run's cycle count and statistics and
// the synthesized hardware model; every evaluation path ends here.
func combine(machine, workload string, cycles uint64, stats *xsim.Stats, hw *hgen.Result, lib *tech.Library) *Evaluation {
	e := &Evaluation{
		Machine:      machine,
		Workload:     workload,
		Cycles:       cycles,
		Instructions: stats.Instructions,
		Stats:        stats,
		CycleNs:      hw.CycleNs,
		AreaCells:    hw.AreaCells,
		Hardware:     hw,
	}
	e.RuntimeUs = float64(e.Cycles) * e.CycleNs / 1e3

	// Power: the per-instruction switched energy assumes every field
	// active; scale it by the measured utilization, charge idle cycles
	// (stalls) at a fraction of that, and add area leakage.
	activity := 0.0
	for _, u := range stats.Utilization() {
		activity += u
	}
	if n := len(stats.FieldIssue); n > 0 {
		activity /= float64(n)
	}
	busy := float64(e.Instructions)
	idle := float64(e.Cycles) - busy
	if idle < 0 {
		idle = 0
	}
	var switchedPJ float64
	if e.Cycles > 0 {
		switchedPJ = hw.EnergyPerInstrPJ * (busy*activity + idle*0.1)
	}
	dynamicMW := 0.0
	if e.Cycles > 0 {
		dynamicMW = lib.DynamicMW(switchedPJ/float64(e.Cycles), e.CycleNs)
	}
	e.PowerMW = dynamicMW + lib.LeakageMW(e.AreaCells)
	e.EnergyUJ = e.PowerMW * e.RuntimeUs / 1e3
	return e
}
