package repro

// One benchmark per table of the paper's evaluation (§6), plus the ablation
// benches DESIGN.md defines. The same measurements, formatted as the paper's
// tables, come from `go run ./cmd/paper`; EXPERIMENTS.md records both.
//
//	go test -bench=. -benchmem

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/cosim"
	"repro/internal/explore"
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/suite"
	"repro/internal/tech"
	"repro/internal/verilog"
	"repro/internal/xsim"
)

// --- Table 1: simulation speed, XSIM ILS vs synthesizable Verilog ---------

func firSetup(b *testing.B) (*isdl.Description, *asm.Program) {
	b.Helper()
	w, err := suite.Get("fir16.spam")
	if err != nil {
		b.Fatal(err)
	}
	d, err := machines.ByName(w.Machine)
	if err != nil {
		b.Fatal(err)
	}
	p, _, _, err := suite.Prepare(w, d)
	if err != nil {
		b.Fatal(err)
	}
	return d, p
}

func benchILS(b *testing.B, compiled bool) {
	d, p := firSetup(b)
	sim := xsim.New(d)
	sim.CompiledCore = compiled
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		if err := sim.Load(p); err != nil {
			b.Fatal(err)
		}
		if err := sim.Run(0); err != nil {
			b.Fatal(err)
		}
		cycles += sim.Cycle()
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/sec")
}

// BenchmarkTable1_XSIM measures the generated instruction-level simulator on
// the SPAM FIR workload (the fast row of Table 1).
func BenchmarkTable1_XSIM(b *testing.B) { benchILS(b, true) }

// BenchmarkTable1_XSIMInterpreted measures the AST-interpreting core — the
// baseline for the paper's §6.2 compiled-code-simulator projection.
func BenchmarkTable1_XSIMInterpreted(b *testing.B) { benchILS(b, false) }

// BenchmarkTable1_VerilogModel measures event-driven simulation of the
// HGEN-generated Verilog running the same workload (the slow row of
// Table 1; the paper used Verilog-XL). Each sub-benchmark fans b.N whole
// workloads over a cosim.Pool at a different worker count; comparing the
// cycles/sec metric across the workers=1 and workers=N rows is the honest
// wall-clock parallel speedup, while measured-speedup is the pool's own
// summed-sim-time-over-wall figure (these agree when cores are free and
// diverge under oversubscription — see EXPERIMENTS.md).
func BenchmarkTable1_VerilogModel(b *testing.B) {
	d, p := firSetup(b)
	r, err := hgen.Synthesize(d, tech.LSI10K(), hgen.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	mod, err := verilog.Parse(r.VerilogText)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, workers int) {
		pool := &cosim.Pool{Workers: workers}
		w := cosim.Workload{
			Mod:  mod,
			Init: func(hw *verilog.Sim) error { return hgen.LoadProgram(hw, p) },
		}
		b.ResetTimer()
		stats, err := pool.Run("bench.table1.verilog", b.N, func(i int, l *cosim.Lane) error {
			_, err := w.Run(l)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.AggregateCyclesPerSec(), "cycles/sec")
		b.ReportMetric(stats.Speedup(), "measured-speedup")
	}
	counts := []int{1, 4, runtime.NumCPU()}
	seen := map[int]bool{}
	for _, workers := range counts {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) { run(b, workers) })
	}
}

// --- Table 2: hardware synthesis statistics --------------------------------

func benchSynth(b *testing.B, d *isdl.Description) {
	var last *hgen.Result
	for i := 0; i < b.N; i++ {
		r, err := hgen.Synthesize(d, tech.LSI10K(), hgen.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.CycleNs, "cycle-ns")
	b.ReportMetric(float64(last.VerilogLines), "verilog-lines")
	b.ReportMetric(last.AreaCells, "die-cells")
}

// BenchmarkTable2_HGEN_SPAM regenerates the SPAM row of Table 2 (the ns/op
// time is the "synthesis time" column).
func BenchmarkTable2_HGEN_SPAM(b *testing.B) { benchSynth(b, machines.SPAM()) }

// BenchmarkTable2_HGEN_SPAM2 regenerates the SPAM2 row of Table 2.
func BenchmarkTable2_HGEN_SPAM2(b *testing.B) { benchSynth(b, machines.SPAM2()) }

// --- Ablation A: resource sharing (Figure 5) -------------------------------

func benchSharing(b *testing.B, mode hgen.SharingMode) {
	d := machines.SPAM()
	var area, datapath float64
	for i := 0; i < b.N; i++ {
		r, err := hgen.Synthesize(d, tech.LSI10K(), hgen.Options{Sharing: mode, Decode: hgen.DecodeTwoLevel})
		if err != nil {
			b.Fatal(err)
		}
		area = r.AreaCells
		datapath = r.Breakdown["datapath"] + r.Breakdown["operand muxes"]
	}
	b.ReportMetric(area, "die-cells")
	b.ReportMetric(datapath, "datapath-cells")
}

func BenchmarkAblation_SharingOff(b *testing.B)   { benchSharing(b, hgen.ShareOff) }
func BenchmarkAblation_SharingRules(b *testing.B) { benchSharing(b, hgen.ShareRules) }
func BenchmarkAblation_SharingFull(b *testing.B)  { benchSharing(b, hgen.ShareRulesAndConstraints) }

// --- Ablation B: decode style (§4.2) ----------------------------------------

func benchDecode(b *testing.B, style hgen.DecodeStyle) {
	d := machines.SPAM()
	var area float64
	for i := 0; i < b.N; i++ {
		r, err := hgen.Synthesize(d, tech.LSI10K(), hgen.Options{Sharing: hgen.ShareRulesAndConstraints, Decode: style})
		if err != nil {
			b.Fatal(err)
		}
		area = r.Breakdown["decode"]
	}
	b.ReportMetric(area, "decode-cells")
}

func BenchmarkAblation_DecodeTwoLevel(b *testing.B)   { benchDecode(b, hgen.DecodeTwoLevel) }
func BenchmarkAblation_DecodeComparator(b *testing.B) { benchDecode(b, hgen.DecodeComparator) }

// --- Ablation C: stall model (§3.3.3) ---------------------------------------

func benchStalls(b *testing.B, model bool) {
	const n = 32
	x, y := machines.VecTestVectors(n)
	d := machines.SPAM()
	p, err := asm.Assemble(d, machines.DotSPAM(n, x, y))
	if err != nil {
		b.Fatal(err)
	}
	sim := xsim.New(d)
	sim.StallModel = model
	var cycles, stalls uint64
	for i := 0; i < b.N; i++ {
		if err := sim.Load(p); err != nil {
			b.Fatal(err)
		}
		if err := sim.Run(0); err != nil {
			b.Fatal(err)
		}
		cycles = sim.Cycle()
		stalls = sim.Stats().DataStalls
	}
	b.ReportMetric(float64(cycles), "cycles")
	b.ReportMetric(float64(stalls), "data-stalls")
}

func BenchmarkAblation_StallsOn(b *testing.B)  { benchStalls(b, true) }
func BenchmarkAblation_StallsOff(b *testing.B) { benchStalls(b, false) }

// --- Infrastructure benches -------------------------------------------------

// BenchmarkAssembleFIR measures the retargetable assembler.
func BenchmarkAssembleFIR(b *testing.B) {
	const taps, nout = 16, 48
	samples, coefs := machines.FIRTestVectors(taps, nout)
	d := machines.SPAM()
	src := machines.FIRSPAM(taps, nout, samples, coefs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble(d, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseISDL measures the description front end.
func BenchmarkParseISDL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := isdl.Parse(machines.SPAMSource); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeriveISDL measures deriving one exploration move from a
// template: copy the SPAM syntax tree, retime one operation, run the
// semantic pass on the copy and format it — what a move costs instead of
// a parse.
func BenchmarkDeriveISDL(b *testing.B) {
	t, err := isdl.NewTemplate(machines.SPAMSource)
	if err != nil {
		b.Fatal(err)
	}
	deepen := func(d *isdl.Description) bool {
		d.Fields[0].Ops[1].Timing.Latency++
		return true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := t.Derive(deepen); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Exploration engine (Figure 1 loop) --------------------------------------

// benchExplore measures the whole iterative-improvement loop on SPAM —
// one template parse per iteration, then every neighbour candidate is
// derived from a copied syntax tree and runs the compile → assemble →
// simulate → synthesize pipeline — under the given concurrency and
// memoization knobs, optionally instrumented with a live obs.Registry
// collecting every metric and span. All variants produce bit-identical
// results (asserted by TestExploreParallelDeterministic and
// TestExploreInstrumentedExactCounters).
func benchExplore(b *testing.B, workers int, cached, instrumented bool, extra ...explore.Option) {
	const kernel = "var i, s;\ns = 0;\nfor i = 0 to 7 { s = s + i; }\n"
	b.ResetTimer()
	var evaluated int
	for i := 0; i < b.N; i++ {
		opts := []explore.Option{
			explore.WithMaxIters(3),
			explore.WithWorkers(workers),
		}
		if !cached {
			opts = append(opts, explore.WithoutCache())
		}
		if instrumented {
			opts = append(opts, explore.WithObs(obs.NewRegistry()))
		}
		opts = append(opts, extra...)
		res, err := explore.New(machines.SPAMSource, kernel, opts...).Run()
		if err != nil {
			b.Fatal(err)
		}
		evaluated = len(res.Steps)
	}
	b.ReportMetric(float64(evaluated), "candidates")
}

// BenchmarkExplore_SPAM is the exploration-throughput benchmark: the
// sequential/uncached row is the engine with every lever off, the
// parallel/cached row the full engine. Move generation runs on the
// explore goroutine in every row (one template parse per iteration, one
// copy + semantic pass + format per move; BenchmarkDeriveISDL measures a
// move), so it is the serial part the parallel rows cannot hide. The -obs
// rows run with a live metrics registry — compare par-cache with
// par-cache-obs for the instrumentation overhead (budgeted at ≤ 5%).
func BenchmarkExplore_SPAM(b *testing.B) {
	b.Run("seq", func(b *testing.B) { benchExplore(b, 1, false, false) })
	b.Run("seq-cache", func(b *testing.B) { benchExplore(b, 1, true, false) })
	b.Run("par", func(b *testing.B) { benchExplore(b, runtime.NumCPU(), false, false) })
	b.Run("par-cache", func(b *testing.B) { benchExplore(b, runtime.NumCPU(), true, false) })
	b.Run("par-cache-obs", func(b *testing.B) { benchExplore(b, runtime.NumCPU(), true, true) })
	b.Run("beam4-par-cache", func(b *testing.B) {
		benchExplore(b, runtime.NumCPU(), true, false, explore.WithBeam(4))
	})
}

// --- Extension: §6.2 pipeline retiming ---------------------------------------

// BenchmarkExtension_RetimeSPAM measures the pipeline optimizer driving SPAM
// toward a 60 ns cycle (the achieved cycle is reported as a metric).
func BenchmarkExtension_RetimeSPAM(b *testing.B) {
	d := machines.SPAM()
	var achieved float64
	for i := 0; i < b.N; i++ {
		res, err := hgen.RetimeForCycle(d, tech.LSI10K(), 60)
		if err != nil {
			b.Fatal(err)
		}
		achieved = res.CycleNs
	}
	b.ReportMetric(achieved, "cycle-ns")
}

// BenchmarkCompileKernel measures the retargetable compiler on a small
// kernel across the bundled machines.
func BenchmarkCompileKernel(b *testing.B) {
	const kernel = `
var i, s;
array a[16] in DM at 0 = { 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16 };
s = 0;
for i = 0 to 15 { s = s + a[i]; }
`
	d := machines.SPAM2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(d, kernel); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Suite: per-kernel MIPS across the machine zoo (ROADMAP item 4) -------

// BenchmarkSuite measures every registered suite workload on every zoo
// machine the toolchain can target (compiled backend), reporting MIPS per
// pair. Repeat with -count for a spread; the end-to-end benchmark with
// repeated samples and quartiles is perfbench (perfbench/run.sh).
func BenchmarkSuite(b *testing.B) {
	for _, w := range suite.All(suite.Filter{}) {
		for _, m := range machines.ZooNames() {
			if w.Machine != "" && w.Machine != m {
				continue // asm workload pinned to one machine
			}
			w, m := w, m
			b.Run(w.Name+"/"+m, func(b *testing.B) {
				d, err := machines.ByName(m)
				if err != nil {
					b.Fatal(err)
				}
				// One verified run first: a yardstick that measures wrong
				// answers fast is no yardstick.
				if _, err := suite.RunOn(w, d, m, suite.Options{}); err != nil {
					var u *suite.Unsupported
					if errors.As(err, &u) {
						b.Skipf("unsupported: %v", u.Err)
					}
					b.Fatal(err)
				}
				p, _, _, err := suite.Prepare(w, d)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				var instrs uint64
				for i := 0; i < b.N; i++ {
					eng, _, err := xsim.NewEngine(d, xsim.BackendCompiled)
					if err != nil {
						b.Fatal(err)
					}
					if err := eng.Load(p); err != nil {
						b.Fatal(err)
					}
					if err := eng.Run(0); err != nil {
						b.Fatal(err)
					}
					instrs += eng.Stats().Instructions
					eng.Close()
				}
				b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "MIPS")
			})
		}
	}
}
