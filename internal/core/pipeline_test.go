package core

import (
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

// TestPipelineMemoKey checks that the memo key covers exactly the
// evaluation's inputs: a formatting-only ISDL change returns the memoized
// evaluation, while a kernel change or a different evaluator setting
// evaluates afresh.
func TestPipelineMemoKey(t *testing.T) {
	src := toyCanonical(t)
	cache := NewEvalCache()
	pipe := &Pipeline{Cache: cache}
	base, err := pipe.EvaluateKernel(src, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}

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
	if h, m := cache.Stats(); h != 1 || m != 1 {
		t.Errorf("after a formatting-only change: %d hits / %d misses, want 1/1", h, m)
	}

	if _, err := pipe.EvaluateKernel(src, pipeKernelB, "kernel"); err != nil {
		t.Fatal(err)
	}
	limited := NewEvaluator()
	limited.MaxInstructions = 1000
	if _, err := (&Pipeline{Evaluator: limited, Cache: cache}).EvaluateKernel(src, pipeKernelA, "kernel"); err != nil {
		t.Fatal(err)
	}
	if h, m := cache.Stats(); h != 1 || m != 3 {
		t.Errorf("after kernel and settings changes: %d hits / %d misses, want 1/3", h, m)
	}
}

// TestPipelineInstrumentation: with a registry configured, every executed
// stage leaves a latency histogram and a span, and no gauge;
// simulator perf counters and synthesis phase timings are published; and
// Bind re-homes the cache counters so hits/misses appear in the metrics.
func TestPipelineInstrumentation(t *testing.T) {
	src := toyCanonical(t)
	reg := obs.NewRegistry()
	cache := NewEvalCache()
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
	// A new kernel re-runs every stage under the parent.
	if linked != 4 {
		t.Errorf("got %d child spans, want 4", linked)
	}

	// Bind carries accumulated counts into the registry.
	cache.Bind(reg)
	counters = reg.Counters()
	if counters["cache.combine.misses"] != 2 {
		t.Errorf("bound miss counter = %d, want 2", counters["cache.combine.misses"])
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
// its own instrumented stage — a span and a stage.codegen.ns observation
// per evaluated candidate — and the resulting figures are bit-identical to
// the default backend's.
func TestPipelineCodegenStage(t *testing.T) {
	if _, err := gensim.Build(machines.Toy()); err != nil {
		t.Skipf("aot backend unavailable: %v", err)
	}
	src := toyCanonical(t)
	reg := obs.NewRegistry()
	ev := NewEvaluator()
	ev.SimBackend = xsim.BackendAOT
	pipe := &Pipeline{Evaluator: ev, Cache: NewEvalCache(), Obs: reg}

	aot, err := pipe.EvaluateKernel(src, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.EvaluateKernel(src, pipeKernelB, "kernel"); err != nil {
		t.Fatal(err)
	}
	if n := reg.Histograms()["stage.codegen.ns"].Count; n != 2 {
		t.Errorf("stage.codegen.ns count = %d, want 2", n)
	}
	var codegenSpans int
	for _, s := range reg.Spans() {
		if s.Name == "codegen" {
			codegenSpans++
		}
	}
	if codegenSpans != 2 {
		t.Errorf("got %d codegen spans, want 2", codegenSpans)
	}

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
	cached, err := (&Pipeline{Cache: NewEvalCache()}).EvaluateKernel(src, pipeKernelA, "kernel")
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
// the second attempt answers from the memo without running a stage.
func TestPipelineMemoizesFailures(t *testing.T) {
	src := toyCanonical(t)
	cache := NewEvalCache()
	reg := obs.NewRegistry()
	pipe := &Pipeline{Cache: cache, Obs: reg}
	bad := "var x;\nx = undefinedCall();\n"
	if _, err := pipe.EvaluateKernel(src, bad, "kernel"); err == nil {
		t.Fatal("expected a compile failure")
	}
	if _, err := pipe.EvaluateKernel(src, bad, "kernel"); err == nil {
		t.Fatal("memoized failure lost")
	}
	if h, m := cache.Stats(); h != 1 || m != 1 {
		t.Errorf("%d hits / %d misses, want 1/1", h, m)
	}
	if n := reg.Histograms()["stage.compile.ns"].Count; n != 1 {
		t.Errorf("compile ran %d times, want 1", n)
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
