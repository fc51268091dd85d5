package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// layerDefs lists the per-layer metrics of the traced run, in print order,
// with the end-to-end metric and workload each should move. BENCHMARK.json's
// per_layer list names the same metrics with the same units.
var layerDefs = []struct{ name, unit, moves string }{
	{"hgen.synth_ms", "ms", "should move cand_per_s on explore-spam"},
	{"hgen.share_ms", "ms", "should move cand_per_s on explore-spam"},
	{"hgen.retime_ms", "ms", "should move cand_per_s on explore-spam"},
	{"isdl.parse_ms", "ms", "should move cand_per_s on sweep-riscv5"},
	{"compiler.compile_ms", "ms", "should move cand_per_s on sweep-riscv5"},
	{"asm.assemble_ms", "ms", "should move cand_per_s on sweep-riscv5"},
	{"xsim.simulate_ms", "ms", "should move cand_per_s on sweep-riscv5"},
	{"xsim.run_ms", "ms", "should move sim_mips on sim-long (per instruction)"},
	{"xsim.warmup_ms", "ms", "should move cand_per_s on sweep-riscv5"},
	{"xsim.decode_miss_ratio", "ratio", "should move cand_per_s on sweep-riscv5"},
	{"xsim.op_reuse_ratio", "ratio", "should move cand_per_s on sweep-riscv5"},
	{"xsim.ops_compiled", "count", "should move cand_per_s on sweep-riscv5"},
	{"xsim.instructions", "count", "should move best_score and sim_cycles only"},
	{"xsim.cycles", "count", "should move best_score and sim_cycles only"},
	{"xsim.stalls_data", "count", "should move best_score and sim_cycles only"},
	{"xsim.stalls_struct", "count", "should move best_score and sim_cycles only"},
	{"core.hit_ratio.compile", "ratio", "should move cand_per_s and max_rss_mb on sweep-riscv5"},
	{"core.hit_ratio.assemble", "ratio", "should move cand_per_s and max_rss_mb on sweep-riscv5"},
	{"core.hit_ratio.simulate", "ratio", "should move cand_per_s and max_rss_mb on sweep-riscv5"},
	{"core.hit_ratio.synthesize", "ratio", "should move cand_per_s and max_rss_mb on sweep-riscv5"},
	{"core.hit_ratio.combine", "ratio", "should move cand_per_s and max_rss_mb on sweep-riscv5"},
	{"core.lookups.compile", "count", "base of core.hit_ratio.compile"},
	{"core.lookups.assemble", "count", "base of core.hit_ratio.assemble"},
	{"core.lookups.simulate", "count", "base of core.hit_ratio.simulate"},
	{"core.lookups.synthesize", "count", "base of core.hit_ratio.synthesize"},
	{"core.lookups.combine", "count", "base of core.hit_ratio.combine"},
	{"core.combine_us", "us", "should move cand_per_s on sweep-riscv5"},
	{"explore.candidates", "count", "should move cand_per_s and best_score on explore-spam, sweep-riscv5"},
	{"explore.infeasible", "count", "should move cand_per_s and best_score on explore-spam, sweep-riscv5"},
	{"explore.accepted", "count", "should move best_score on explore-spam, sweep-riscv5"},
	{"explore.pool_busy_ratio", "ratio", "should move cand_per_s on explore-spam, sweep-riscv5"},
	{"suite.prepare_ms", "ms", "should move setup_s on sim-long"},
	{"traced.cand_per_s", "1/s", "tracing overhead against cand_per_s"},
	{"traced.sim_mips", "instr/us", "tracing overhead against sim_mips"},
	{"trace.overhead_ratio", "ratio", "tracing overhead: untraced/traced cand_per_s - 1"},
}

// cacheStages are the stage-cache tiers whose hit ratios the traced run
// reports (parse is never cached).
var cacheStages = []core.Stage{core.StageCompile, core.StageAssemble, core.StageSimulate, core.StageSynthesize, core.StageCombine}

// acc accumulates a number of timed calls.
type acc struct {
	n  int
	ns float64
}

// layerTimes gathers per-layer call timings and counts: the benchmark's own
// timers around the calls it makes, plus, on the explore workloads, the
// program's stage histograms read from the registry.
type layerTimes struct {
	t map[string]*acc
	c map[string]int
}

func newLayerTimes() *layerTimes { return &layerTimes{t: map[string]*acc{}, c: map[string]int{}} }

func (l *layerTimes) addNs(name string, n int, ns float64) {
	a := l.t[name]
	if a == nil {
		a = &acc{}
		l.t[name] = a
	}
	a.n += n
	a.ns += ns
}

func (l *layerTimes) add(name string, d time.Duration) { l.addNs(name, 1, float64(d)) }

func (l *layerTimes) count(name string, n int) { l.c[name] += n }

// mean returns a layer's mean time per call in the unit (ns per unit), and
// its call count.
func (l *layerTimes) mean(name string, unitNs float64) (float64, int) {
	a := l.t[name]
	if a == nil || a.n == 0 {
		return 0, 0
	}
	return a.ns / float64(a.n) / unitNs, a.n
}

// fromRegistry reads the program's stage and synthesis-phase histograms.
// The simulate stage's run part is the engines' summed run time.
func (l *layerTimes) fromRegistry(r *obs.Registry) {
	hs := r.Histograms()
	for _, s := range []string{"parse", "compile", "assemble", "simulate", "synthesize", "combine"} {
		h := hs["stage."+s+".ns"]
		l.addNs(s, int(h.Count), h.SumNs)
	}
	for _, ph := range []string{"share", "retime"} {
		h := hs["synth."+ph+".ns"]
		l.addNs(ph, int(h.Count), h.SumNs)
	}
	sims := int(hs["stage.simulate.ns"].Count)
	l.addNs("run", sims, float64(r.Counters()["xsim.run_ns"]))
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerMetrics fills the per-layer metrics of a traced run: reps identical
// repetitions of the workload ran traced over wall, on a pool of workers
// (0: no exploration pool). Counts are per repetition.
func (b *bench) layerMetrics(reps, workers int, wall time.Duration) {
	set := func(name string, v float64, base string) {
		for _, d := range layerDefs {
			if d.name == name {
				b.metrics[name] = metric{v, d.unit}
				b.notes[name] = fmt.Sprintf("[%s] %s", base, d.moves)
				return
			}
		}
		panic("perfbench: undeclared layer metric " + name)
	}
	lt, cs := b.lt, b.layer.Counters()
	perRep := func(v uint64) float64 { return float64(v) / float64(reps) }
	timed := func(name, layer string, unitNs float64) {
		v, n := lt.mean(layer, unitNs)
		set(name, v, fmt.Sprintf("mean of %d calls", n))
	}

	timed("hgen.synth_ms", "synthesize", 1e6)
	timed("hgen.share_ms", "share", 1e6)
	timed("hgen.retime_ms", "retime", 1e6)
	timed("isdl.parse_ms", "parse", 1e6)
	timed("compiler.compile_ms", "compile", 1e6)
	timed("asm.assemble_ms", "assemble", 1e6)
	timed("xsim.simulate_ms", "simulate", 1e6)
	timed("xsim.run_ms", "run", 1e6)
	if sim, run := lt.t["simulate"], lt.t["run"]; sim != nil && run != nil {
		lt.addNs("warmup-derived", sim.n, sim.ns-run.ns)
	}
	timed("xsim.warmup_ms", "warmup-derived", 1e6)
	timed("core.combine_us", "combine", 1e3)
	timed("suite.prepare_ms", "prepare", 1e6)

	dh, dm := cs["xsim.decode.hits"], cs["xsim.decode.misses"]
	set("xsim.decode_miss_ratio", ratio(dm, dh+dm), fmt.Sprintf("%d of %d fetches", dm, dh+dm))
	or, oc := cs["xsim.ops.reused"], cs["xsim.ops.compiled"]
	set("xsim.op_reuse_ratio", ratio(or, or+oc), fmt.Sprintf("%d of %d decoded ops", or, or+oc))
	set("xsim.ops_compiled", perRep(oc), fmt.Sprintf("per repetition, %d repetitions", reps))
	for _, c := range []struct{ name, counter string }{
		{"xsim.instructions", "xsim.instructions"}, {"xsim.cycles", "xsim.cycles"},
		{"xsim.stalls_data", "xsim.stalls.data"}, {"xsim.stalls_struct", "xsim.stalls.struct"},
	} {
		set(c.name, perRep(cs[c.counter]), fmt.Sprintf("per repetition, %d repetitions", reps))
	}
	for _, s := range cacheStages {
		h, m := cs["cache."+s.String()+".hits"], cs["cache."+s.String()+".misses"]
		set("core.hit_ratio."+s.String(), ratio(h, h+m), fmt.Sprintf("%d hits of %d lookups", h, h+m))
		set("core.lookups."+s.String(), perRep(h+m), fmt.Sprintf("per repetition, %d repetitions", reps))
	}
	for _, n := range []string{"explore.candidates", "explore.infeasible", "explore.accepted"} {
		set(n, float64(lt.c[n]), "per repetition")
	}
	busy := 0.0
	for _, s := range []string{"parse", "compile", "assemble", "simulate", "synthesize", "combine"} {
		if workers > 0 && lt.t[s] != nil {
			busy += lt.t[s].ns
		}
	}
	if workers > 0 {
		set("explore.pool_busy_ratio", busy/(float64(wall)*float64(workers)),
			fmt.Sprintf("summed stage time over %.3f s wall x %d workers", wall.Seconds(), workers))
	} else {
		set("explore.pool_busy_ratio", 0, "no exploration pool")
	}

	_, untraced, _ := quartiles(b.rates["cand_per_s"])
	_, traced, _ := quartiles(b.rates["traced.cand_per_s"])
	_, untracedMIPS, _ := quartiles(b.rates["sim_mips"])
	_, tracedMIPS, _ := quartiles(b.rates["traced.sim_mips"])
	set("traced.cand_per_s", traced, fmt.Sprintf("median of %d traced repetitions; untraced %.6g", len(b.rates["traced.cand_per_s"]), untraced))
	set("traced.sim_mips", tracedMIPS, fmt.Sprintf("median of %d traced repetitions; untraced %.6g", len(b.rates["traced.sim_mips"]), untracedMIPS))
	set("trace.overhead_ratio", untraced/traced-1, "untraced over traced median cand_per_s")
	fmt.Fprintf(b.out, "tracing overhead: cand_per_s %.6g untraced vs %.6g traced (%+.1f%%); sim_mips %.6g vs %.6g (%+.1f%%)\n",
		untraced, traced, 100*(traced/untraced-1), untracedMIPS, tracedMIPS, 100*(tracedMIPS/untracedMIPS-1))
}
