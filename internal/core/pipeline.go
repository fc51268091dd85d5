package core

// The staged evaluation pipeline. The paper's Figure 1 loop regenerates
// every tool from one ISDL description per candidate:
//
//	Parse → CompileKernel → Assemble → Simulate ┐
//	                      Synthesize ───────────┴→ Combine
//
// Each stage is a pure function of its inputs, so the Pipeline memoizes
// every stage in a StageCache keyed by exactly those inputs (see cache.go
// and docs/PIPELINE.md): a kernel-only change reuses the Synthesize
// artifact, a formatting-only change reuses everything, and a persisted
// cache makes repeated CLI explorations start with compilation and
// synthesis fully warm.

import (
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/gensim" // registers the aot backend with xsim
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/obs"
	"repro/internal/xsim"
)

// SimArtifact is the Simulate stage's result: the measurements Combine
// needs, detached from the live simulator. Cached artifacts are shared and
// must be treated as immutable.
type SimArtifact struct {
	Cycles uint64
	Stats  *xsim.Stats
}

// CodegenArtifact is the Codegen stage's result: where the aot simulator
// binary for the description landed in gensim's on-disk build cache.
type CodegenArtifact struct {
	Fingerprint string
	Bin         string
	// BuildNs is the generate+compile time; zero when gensim's own disk
	// cache already held the binary.
	BuildNs int64
}

// SynthArtifact is the Synthesize stage's result: the cost figures Combine
// needs. Result carries the full hardware model when synthesis ran in this
// process; it is dropped by cache persistence (only the figures are
// serialized), so evaluations rebuilt from a loaded cache have a nil
// Hardware.
type SynthArtifact struct {
	CycleNs          float64
	AreaCells        float64
	EnergyPerInstrPJ float64
	Result           *hgen.Result `json:"-"`
}

// Pipeline runs the staged methodology with per-stage memoization.
type Pipeline struct {
	// Evaluator configures the methodology; nil uses NewEvaluator().
	Evaluator *Evaluator
	// Cache memoizes stage artifacts; nil runs every stage every time.
	// The cache is only valid for one Evaluator configuration.
	Cache *StageCache
	// Obs receives per-stage latency histograms (stage.<name>.ns), one
	// span per executed stage, simulator perf counters and synthesis
	// phase timings. Nil
	// disables instrumentation entirely (no clock reads on the hot path).
	// Obs does not bind the Cache's hit/miss counters — call
	// Cache.Bind(Obs) for that.
	Obs *obs.Registry
}

// EvaluateKernel runs the full pipeline for one candidate ISDL source and
// one kernel-language workload: parse, compile the kernel, assemble,
// simulate, synthesize, and combine. Every stage after parsing is
// memoized when a cache is configured. Parse errors are returned uncached
// (an unparsable text has no canonical form to key by); all later
// deterministic failures are memoized under the final key too, so an
// infeasible candidate is rejected once per cache lifetime.
func (p *Pipeline) EvaluateKernel(isdlSrc, kernel, workload string) (*Evaluation, error) {
	return p.EvaluateKernelTraced(isdlSrc, kernel, workload, nil)
}

// EvaluateKernelTraced is EvaluateKernel with span linkage: executed
// stages become children of parent in the exported trace (the explorer
// passes its per-candidate span). A nil parent starts stage spans at the
// root; with a nil Obs registry it behaves exactly like EvaluateKernel.
func (p *Pipeline) EvaluateKernelTraced(isdlSrc, kernel, workload string, parent *obs.Span) (*Evaluation, error) {
	ev := p.Evaluator
	if ev == nil {
		ev = NewEvaluator()
	}
	c := p.Cache

	// Parse + canonicalize. Never cached: the artifact would be a mutable
	// AST, which stages deliberately do not share across candidates.
	if c != nil {
		c.countRun(StageParse)
	}
	var start time.Time
	if p.Obs != nil {
		start = time.Now()
	}
	d, err := isdl.Parse(isdlSrc)
	if p.Obs != nil {
		p.Obs.Histogram("stage.parse.ns").Observe(time.Since(start))
	}
	if err != nil {
		return nil, fmt.Errorf("core: parse ISDL: %w", err)
	}
	canonical := isdl.Format(d)

	finalKey := EvalKey(canonical, kernel)
	if c != nil {
		if v, err, ok := c.Get(StageCombine, finalKey); ok {
			e, _ := v.(*Evaluation)
			return e, err
		}
	}
	e, err := p.runStages(ev, c, d, canonical, kernel, workload, parent)
	if c != nil {
		c.Put(StageCombine, finalKey, e, err)
	}
	return e, err
}

// runStages is the post-parse pipeline; every stage memoized individually.
func (p *Pipeline) runStages(ev *Evaluator, c *StageCache, d *isdl.Description, canonical, kernel, workload string, parent *obs.Span) (*Evaluation, error) {
	// Codegen: with the aot backend, generating and natively compiling the
	// specialized simulator is a first-class pipeline stage — cached,
	// spanned and timed like the others — so the cost the paper attributes
	// to simulator generation (§3.3) is visible in the same instruments.
	// A codegen failure downgrades this evaluation to the compiled
	// backend; it never fails the candidate.
	simBackend := ev.SimBackend
	if simBackend == xsim.BackendAOT {
		if _, err := p.runCodegen(parent, canonical, d); err != nil {
			simBackend = xsim.BackendCompiled
		}
	}

	// CompileKernel: (canonical ISDL, kernel) → assembly text.
	asmText, err := stageRun(p, parent, StageCompile, StageKey(StageCompile, canonical, kernel), func() (string, error) {
		return compiler.Compile(d, kernel)
	})
	if err != nil {
		return nil, err
	}

	// Assemble: (canonical ISDL, kernel) → *asm.Program. The compiler is
	// deterministic, so the kernel stands in for its assembly output in
	// the key. A cached program may have been assembled against an
	// earlier, textually identical parse of the description; programs are
	// read-only after assembly, so sharing is sound.
	prog, err := stageRun(p, parent, StageAssemble, StageKey(StageAssemble, canonical, kernel), func() (*asm.Program, error) {
		return asm.Assemble(d, asmText)
	})
	if err != nil {
		return nil, err
	}

	// Simulate: (canonical ISDL, program image) → SimArtifact. Keyed by
	// the marshalled image — not the kernel — so callers that feed
	// hand-written or hand-optimized assembly share entries with compiled
	// kernels that produce the same program.
	img := asm.Marshal(prog)
	simArt, err := stageRun(p, parent, StageSimulate, StageKey(StageSimulate, canonical, string(img)), func() (SimArtifact, error) {
		return runSimulation(d, prog, ev.MaxInstructions, workload, simBackend, p.Obs)
	})
	if err != nil {
		return nil, err
	}

	// Synthesize: independent of the workload, so a kernel change reuses
	// the hardware model — and keyed by the structural fingerprint of what
	// synthesis actually reads (layout, RTL, costs, signature shapes), not
	// the whole canonical text, so an encoding-only mutation (opcode
	// reassignment) reuses the artifact too. Verilog emission embeds the
	// opcode values, so that mode keys by the full canonical text.
	synthKey := StageKey(StageSynthesize, "fp", isdl.SynthFingerprint(d).String())
	if ev.Synthesis.EmitVerilog {
		synthKey = StageKey(StageSynthesize, canonical)
	}
	synthArt, err := stageRun(p, parent, StageSynthesize, synthKey, func() (SynthArtifact, error) {
		hw, err := hgen.Synthesize(d, ev.Lib, ev.Synthesis)
		if err != nil {
			return SynthArtifact{}, fmt.Errorf("core: synthesize: %w", err)
		}
		if p.Obs != nil {
			publishSynth(p.Obs, hw)
		}
		return SynthArtifact{
			CycleNs:          hw.CycleNs,
			AreaCells:        hw.AreaCells,
			EnergyPerInstrPJ: hw.EnergyPerInstrPJ,
			Result:           hw,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	// Combine: pure arithmetic over the two artifacts; not cached on its
	// own (the final key memoizes the result in EvaluateKernel).
	var start time.Time
	if p.Obs != nil {
		start = time.Now()
	}
	e := combineArtifacts(d.Name, workload, simArt, synthArt, ev.Lib)
	if p.Obs != nil {
		p.Obs.Histogram("stage.combine.ns").Observe(time.Since(start))
	}
	return e, nil
}

// publishSynth records a synthesis run's phase timings as synth.<phase>.ns
// histograms and its exhausted coexistence searches as the
// synth.coexist.exhausted counter. Only a non-zero count creates the
// counter, so the metrics summary shows that line exactly when a search
// gave up.
func publishSynth(r *obs.Registry, hw *hgen.Result) {
	for ph, sec := range hw.PhaseSeconds {
		r.Histogram("synth." + ph + ".ns").ObserveNs(sec * 1e9)
	}
	if hw.CoexistExhausted > 0 {
		r.Counter("synth.coexist.exhausted").Add(uint64(hw.CoexistExhausted))
	}
}

// runCodegen generates and natively compiles the aot simulator for the
// description, memoizing deterministic outcomes (a built binary, or an
// unsupported-description rejection) under the canonical text. Environmental
// failures — toolchain missing, backend disabled — are not cached, so a
// host that gains a toolchain mid-process is picked up.
func (p *Pipeline) runCodegen(parent *obs.Span, canonical string, d *isdl.Description) (CodegenArtifact, error) {
	c := p.Cache
	k := StageKey(StageCodegen, canonical)
	if c != nil {
		if v, err, ok := c.Get(StageCodegen, k); ok {
			a, _ := v.(CodegenArtifact)
			return a, err
		}
	}
	r := p.Obs
	var sp *obs.Span
	var start time.Time
	if r != nil {
		if parent != nil {
			sp = parent.Child(StageCodegen.String())
		} else {
			sp = r.StartSpan(StageCodegen.String())
		}
		start = time.Now()
	}
	br, err := gensim.Build(d)
	var art CodegenArtifact
	if err == nil {
		art = CodegenArtifact{Fingerprint: br.Fingerprint, Bin: br.Bin, BuildNs: br.BuildNs}
	}
	if r != nil {
		r.Histogram("stage." + StageCodegen.String() + ".ns").Observe(time.Since(start))
		if err != nil {
			sp.SetArg("err", err.Error())
		} else {
			sp.SetArg("fp", br.Fingerprint)
			if br.CacheHit {
				sp.SetArg("cache", "hit")
			}
		}
		sp.End()
	}
	if c != nil && (err == nil || gensim.IsUnsupported(err)) {
		c.Put(StageCodegen, k, art, err)
	}
	return art, err
}

// runSimulation executes a program on a fresh engine of the requested
// backend and detaches the measurements; the engine's own perf counters are
// published into the registry (they are per-run deltas here, so repeated
// publishes sum to the total simulated work).
func runSimulation(d *isdl.Description, prog *asm.Program, limit int64, workload string, backend xsim.Backend, r *obs.Registry) (SimArtifact, error) {
	eng, info, err := xsim.NewEngine(d, backend)
	if err != nil {
		return SimArtifact{}, fmt.Errorf("core: simulator backend: %w", err)
	}
	defer eng.Close()
	if r != nil && info.FallbackReason != "" {
		r.Counter("sim.backend.fallback").Inc()
	}
	if err := eng.Load(prog); err != nil {
		return SimArtifact{}, fmt.Errorf("core: load: %w", err)
	}
	if limit <= 0 {
		limit = 100_000_000
	}
	err = eng.Run(limit)
	if r != nil {
		eng.Perf().Publish(r)
	}
	if err != nil {
		return SimArtifact{}, fmt.Errorf("core: simulate: %w", err)
	}
	if !eng.Halted() {
		return SimArtifact{}, fmt.Errorf("core: workload %s did not halt within %d instructions", workload, limit)
	}
	return SimArtifact{Cycles: eng.Cycle(), Stats: eng.Stats()}, nil
}

// stageRun memoizes one stage execution: on a cache miss it runs the
// stage — instrumented with a latency histogram and a span when the
// pipeline has a registry — and stores the artifact (or the
// deterministic error) under the key. With a nil cache it just runs the
// stage.
func stageRun[T any](p *Pipeline, parent *obs.Span, s Stage, k CacheKey, run func() (T, error)) (T, error) {
	c := p.Cache
	if c != nil {
		if v, err, ok := c.Get(s, k); ok {
			t, _ := v.(T)
			return t, err
		}
	}
	r := p.Obs
	var sp *obs.Span
	var start time.Time
	if r != nil {
		if parent != nil {
			sp = parent.Child(s.String())
		} else {
			sp = r.StartSpan(s.String())
		}
		start = time.Now()
	}
	t, err := run()
	if r != nil {
		r.Histogram("stage." + s.String() + ".ns").Observe(time.Since(start))
		if err != nil {
			sp.SetArg("err", err.Error())
		}
		sp.End()
	}
	if c == nil {
		return t, err
	}
	if err != nil {
		var zero T
		c.Put(s, k, zero, err)
		return t, err
	}
	c.Put(s, k, t, nil)
	return t, err
}
