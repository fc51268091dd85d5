package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/gensim"
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/xsim"
)

const pipeKernelA = "var x, y;\nx = 2;\ny = x + 3;\n"
const pipeKernelB = "var x, y;\nx = 4;\ny = x + x;\n"

func toyCanonical(t *testing.T) string {
	t.Helper()
	return isdl.Format(machines.Toy())
}

// statsDelta subtracts two per-stage snapshots.
func statsDelta(before, after [NumStages]StageStats) [NumStages]StageStats {
	var d [NumStages]StageStats
	for s := range after {
		d[s] = StageStats{Hits: after[s].Hits - before[s].Hits, Misses: after[s].Misses - before[s].Misses}
	}
	return d
}

func wantStage(t *testing.T, d [NumStages]StageStats, s Stage, hits, misses uint64) {
	t.Helper()
	if d[s].Hits != hits || d[s].Misses != misses {
		t.Errorf("stage %s: %d hits / %d misses, want %d/%d", s, d[s].Hits, d[s].Misses, hits, misses)
	}
}

// TestPipelineStageKeyComposition checks that each stage key covers exactly
// its inputs: a formatting-only ISDL change reuses every artifact, and a
// kernel-only change reuses the Synthesize artifact while redoing the
// workload-dependent stages.
func TestPipelineStageKeyComposition(t *testing.T) {
	src := toyCanonical(t)
	cache := NewStageCache()
	pipe := &Pipeline{Cache: cache}

	base, err := pipe.EvaluateKernel(src, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	cold := cache.PerStage()
	for s := StageCompile; s < NumStages; s++ {
		if s == StageCodegen {
			// Codegen runs only when the aot simulator backend is
			// requested (TestPipelineCodegenStage).
			wantStage(t, cold, s, 0, 0)
			continue
		}
		if cold[s].Misses != 1 || cold[s].Hits != 0 {
			t.Errorf("cold run, stage %s: %+v, want exactly one miss", s, cold[s])
		}
	}

	// Formatting-only change: same canonical text, so every stage key is
	// unchanged and the final (combine) key already answers.
	reformatted := strings.ReplaceAll(src, "\n", "\n\n")
	if isdl.Format(mustParse(t, reformatted)) != src {
		t.Fatal("reformatted source is not formatting-only")
	}
	again, err := pipe.EvaluateKernel(reformatted, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	if again != base {
		t.Error("formatting-only change did not return the memoized evaluation")
	}
	d := statsDelta(cold, cache.PerStage())
	wantStage(t, d, StageCombine, 1, 0)
	for s := StageCompile; s < StageCombine; s++ {
		wantStage(t, d, s, 0, 0)
	}

	// Kernel-only change: Synthesize depends only on the description, so
	// its artifact is reused; the workload-dependent stages re-run.
	snap := cache.PerStage()
	kb, err := pipe.EvaluateKernel(src, pipeKernelB, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	d = statsDelta(snap, cache.PerStage())
	wantStage(t, d, StageSynthesize, 1, 0)
	wantStage(t, d, StageCompile, 0, 1)
	wantStage(t, d, StageAssemble, 0, 1)
	wantStage(t, d, StageSimulate, 0, 1)
	wantStage(t, d, StageCombine, 0, 1)
	if kb.CycleNs != base.CycleNs || kb.AreaCells != base.AreaCells {
		t.Error("kernel-only change altered the hardware figures")
	}
}

// TestPipelineSynthKeyIgnoresEncoding: the Synthesize stage keys by the
// structural fingerprint of what synthesis reads, so an encoding-only
// mutation (reassigning opcodes) reuses the hardware artifact while the
// workload-dependent stages (whose output bits change) re-run.
func TestPipelineSynthKeyIgnoresEncoding(t *testing.T) {
	d := machines.SPAM()
	base := isdl.Format(d)

	// Swap the ALU add/sub opcode constants — decode stays unambiguous,
	// program images change, hardware structure does not.
	var add, sub *isdl.Operation
	for _, f := range d.Fields {
		if f.ByName["add"] != nil && f.ByName["sub"] != nil {
			add, sub = f.ByName["add"], f.ByName["sub"]
			break
		}
	}
	if add == nil || sub == nil || !add.Encode[0].ConstSet || !sub.Encode[0].ConstSet {
		t.Fatal("SPAM ALU add/sub opcode layout changed; update this test")
	}
	add.Encode[0].Const, sub.Encode[0].Const = sub.Encode[0].Const, add.Encode[0].Const
	mutated := isdl.Format(d)
	if mutated == base {
		t.Fatal("opcode swap did not change the canonical text")
	}

	cache := NewStageCache()
	pipe := &Pipeline{Cache: cache}
	e1, err := pipe.EvaluateKernel(base, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	snap := cache.PerStage()
	e2, err := pipe.EvaluateKernel(mutated, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	delta := statsDelta(snap, cache.PerStage())
	wantStage(t, delta, StageSynthesize, 1, 0)
	wantStage(t, delta, StageCompile, 0, 1)
	wantStage(t, delta, StageSimulate, 0, 1)
	wantStage(t, delta, StageCombine, 0, 1)
	if e2.CycleNs != e1.CycleNs || e2.AreaCells != e1.AreaCells {
		t.Error("encoding-only change altered the hardware figures")
	}
	if e2.Cycles != e1.Cycles {
		t.Errorf("opcode reassignment changed the cycle count: %d vs %d", e2.Cycles, e1.Cycles)
	}
}

// TestPipelineInstrumentation: with a registry configured, every executed
// stage leaves a latency histogram and a span, and no gauge;
// simulator perf counters and synthesis phase timings are published; and
// Bind re-homes the cache counters so hits/misses appear in the metrics.
func TestPipelineInstrumentation(t *testing.T) {
	src := toyCanonical(t)
	reg := obs.NewRegistry()
	cache := NewStageCache()
	pipe := &Pipeline{Cache: cache, Obs: reg}
	if _, err := pipe.EvaluateKernel(src, pipeKernelA, "kernel"); err != nil {
		t.Fatal(err)
	}

	hists := reg.Histograms()
	for _, name := range []string{"stage.parse.ns", "stage.compile.ns", "stage.assemble.ns",
		"stage.simulate.ns", "stage.synthesize.ns", "stage.combine.ns",
		"synth.share.ns", "synth.coexist.ns", "synth.cliques.ns", "synth.cover.ns",
		"synth.retime.ns"} {
		if hists[name].Count == 0 {
			t.Errorf("histogram %s not recorded", name)
		}
	}
	if _, ok := reg.Counters()["synth.coexist.exhausted"]; ok {
		t.Error("synth.coexist.exhausted published although no search gave up")
	}
	if g := reg.Gauges(); len(g) != 0 {
		t.Errorf("pipeline published gauges %v, want none", g)
	}
	counters := reg.Counters()
	if counters["xsim.instructions"] == 0 {
		t.Error("simulator perf counters not published")
	}
	spans := reg.Spans()
	if len(spans) != 4 { // compile, assemble, simulate, synthesize
		t.Errorf("got %d spans, want 4: %+v", len(spans), spans)
	}

	// Span linkage: a parent span makes stage spans its children.
	parent := reg.StartSpan("candidate")
	if _, err := pipe.EvaluateKernelTraced(src, pipeKernelB, "kernel", parent); err != nil {
		t.Fatal(err)
	}
	parent.End()
	var linked int
	for _, s := range reg.Spans() {
		if s.Parent != 0 {
			linked++
		}
	}
	// Compile, assemble, simulate re-ran under the parent; synthesize hit.
	if linked != 3 {
		t.Errorf("got %d child spans, want 3", linked)
	}

	// Bind carries accumulated counts into the registry.
	cache.Bind(reg)
	counters = reg.Counters()
	ps := cache.PerStage()
	if counters["cache.synthesize.hits"] != ps[StageSynthesize].Hits || ps[StageSynthesize].Hits == 0 {
		t.Errorf("bound hit counter = %d, want %d", counters["cache.synthesize.hits"], ps[StageSynthesize].Hits)
	}
	// Post-bind traffic lands in the registry counters too.
	if _, err := pipe.EvaluateKernel(src, pipeKernelA, "kernel"); err != nil {
		t.Fatal(err)
	}
	after := reg.Counters()
	if after["cache.combine.hits"] != counters["cache.combine.hits"]+1 {
		t.Errorf("post-bind combine hits = %d, want %d", after["cache.combine.hits"], counters["cache.combine.hits"]+1)
	}
}

// TestPipelineCodegenStage: with the aot simulator backend, codegen runs as
// its own memoized stage — one miss on the first evaluation of a
// description, a hit for every later kernel on the same description — and
// the resulting figures are bit-identical to the default backend's.
func TestPipelineCodegenStage(t *testing.T) {
	if _, err := gensim.Build(machines.Toy()); err != nil {
		t.Skipf("aot backend unavailable: %v", err)
	}
	src := toyCanonical(t)
	cache := NewStageCache()
	ev := NewEvaluator()
	ev.SimBackend = xsim.BackendAOT
	pipe := &Pipeline{Evaluator: ev, Cache: cache}

	aot, err := pipe.EvaluateKernel(src, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	cold := cache.PerStage()
	wantStage(t, cold, StageCodegen, 0, 1)

	// A different kernel on the same description reuses the built simulator.
	snap := cache.PerStage()
	if _, err := pipe.EvaluateKernel(src, pipeKernelB, "kernel"); err != nil {
		t.Fatal(err)
	}
	d := statsDelta(snap, cache.PerStage())
	wantStage(t, d, StageCodegen, 1, 0)

	// The aot path produces the same evaluation as the default backend.
	plain, err := (&Pipeline{}).EvaluateKernel(src, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	if aot.Cycles != plain.Cycles || aot.RuntimeUs != plain.RuntimeUs ||
		aot.AreaCells != plain.AreaCells || aot.PowerMW != plain.PowerMW {
		t.Errorf("aot evaluation differs from default backend: %+v vs %+v", aot, plain)
	}
}

func mustParse(t *testing.T, src string) *isdl.Description {
	t.Helper()
	d, err := isdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPipelineNilCache: the pipeline works without memoization and produces
// the same figures as the cached path.
func TestPipelineNilCache(t *testing.T) {
	src := toyCanonical(t)
	cached, err := (&Pipeline{Cache: NewStageCache()}).EvaluateKernel(src, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := (&Pipeline{}).EvaluateKernel(src, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != cached.Cycles || plain.RuntimeUs != cached.RuntimeUs || plain.PowerMW != cached.PowerMW {
		t.Errorf("uncached evaluation differs: %+v vs %+v", plain, cached)
	}
}

// TestPipelineMemoizesFailures: an uncompilable candidate is rejected once;
// the second attempt answers from the final stage.
func TestPipelineMemoizesFailures(t *testing.T) {
	src := toyCanonical(t)
	cache := NewStageCache()
	pipe := &Pipeline{Cache: cache}
	bad := "var x;\nx = undefinedCall();\n"
	if _, err := pipe.EvaluateKernel(src, bad, "kernel"); err == nil {
		t.Fatal("expected a compile failure")
	}
	snap := cache.PerStage()
	_, err := pipe.EvaluateKernel(src, bad, "kernel")
	if err == nil {
		t.Fatal("memoized failure lost")
	}
	d := statsDelta(snap, cache.PerStage())
	wantStage(t, d, StageCombine, 1, 0)
	wantStage(t, d, StageCompile, 0, 0)
}

// TestStageCachePersistenceRoundTrip: Save/Load carries the compile,
// simulate and synthesize artifacts (and memoized failures) across caches,
// so a fresh process re-evaluates a known candidate without compiling,
// simulating or synthesizing — only assembly and the final combine re-run.
func TestStageCachePersistenceRoundTrip(t *testing.T) {
	src := toyCanonical(t)
	first := NewStageCache()
	base, err := (&Pipeline{Cache: first}).EvaluateKernel(src, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	bad := "var x;\nx = undefinedCall();\n"
	if _, err := (&Pipeline{Cache: first}).EvaluateKernel(src, bad, "kernel"); err == nil {
		t.Fatal("expected a compile failure")
	}

	var blob bytes.Buffer
	if err := first.Save(&blob); err != nil {
		t.Fatal(err)
	}

	second := NewStageCache()
	if err := second.Load(bytes.NewReader(blob.Bytes())); err != nil {
		t.Fatal(err)
	}
	reloaded, err := (&Pipeline{Cache: second}).EvaluateKernel(src, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	ps := second.PerStage()
	wantStage(t, ps, StageCompile, 1, 0)
	wantStage(t, ps, StageSimulate, 1, 0)
	wantStage(t, ps, StageSynthesize, 1, 0)
	wantStage(t, ps, StageAssemble, 0, 1)
	wantStage(t, ps, StageCombine, 0, 1)

	if reloaded.Cycles != base.Cycles || reloaded.RuntimeUs != base.RuntimeUs ||
		reloaded.AreaCells != base.AreaCells || reloaded.PowerMW != base.PowerMW {
		t.Errorf("reloaded evaluation differs: %+v vs %+v", reloaded, base)
	}

	// The memoized failure survives persistence too.
	if _, err := (&Pipeline{Cache: second}).EvaluateKernel(src, bad, "kernel"); err == nil {
		t.Error("persisted failure lost")
	}

	// Version skew is rejected instead of misread.
	cur := fmt.Sprintf(`"version":%d`, persistVersion)
	skew := strings.Replace(blob.String(), cur, `"version":99`, 1)
	if skew == blob.String() {
		t.Fatalf("persisted blob does not contain %s", cur)
	}
	if err := NewStageCache().Load(strings.NewReader(skew)); err == nil {
		t.Error("incompatible cache version accepted")
	}
}

// TestPublishSynthExhausted: a synthesis whose coexistence searches gave up
// publishes their count next to the phase histograms.
func TestPublishSynthExhausted(t *testing.T) {
	reg := obs.NewRegistry()
	publishSynth(reg, &hgen.Result{CoexistExhausted: 3, PhaseSeconds: map[string]float64{"coexist": 0.002}})
	if got := reg.Counters()["synth.coexist.exhausted"]; got != 3 {
		t.Errorf("synth.coexist.exhausted = %d, want 3", got)
	}
	if reg.Histograms()["synth.coexist.ns"].Count != 1 {
		t.Error("synth.coexist.ns not recorded")
	}
}
