package core

// The staged evaluation pipeline. The paper's Figure 1 loop regenerates
// every tool from one ISDL description per candidate:
//
//	Parse → CompileKernel → Assemble → Simulate ┐
//	                      Synthesize ───────────┴→ Combine
//
// Every stage is a pure function of the description, the kernel and the
// evaluator settings, so the Pipeline memoizes the whole walk in an
// EvalCache keyed by exactly those inputs (see cache.go and
// docs/PIPELINE.md): a formatting-only change, a revisited candidate or a
// second process sharing the same store reuses the evaluation.

import (
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/gensim" // registers the aot backend with xsim
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/obs"
	"repro/internal/tech"
	"repro/internal/xsim"
)

// Pipeline runs the staged methodology with whole-evaluation memoization.
type Pipeline struct {
	// Evaluator configures the methodology; nil uses NewEvaluator().
	Evaluator *Evaluator
	// Cache memoizes evaluations; nil runs every stage every time. The
	// key covers the Evaluator's settings, so one cache (and one store)
	// may serve pipelines with different evaluators.
	Cache *EvalCache
	// Obs receives per-stage latency histograms (stage.<name>.ns), one
	// span per executed stage, simulator perf counters and synthesis
	// phase timings. Nil disables instrumentation entirely (no clock
	// reads on the hot path). Obs does not bind the Cache's hit/miss
	// counters — call Cache.Bind(Obs) for that.
	Obs *obs.Registry
}

// EvaluateKernel runs the full pipeline for one candidate ISDL source and
// one kernel-language workload: parse, compile the kernel, assemble,
// simulate, synthesize, and combine. With a cache configured, the result
// of every parsable candidate is memoized. Parse errors are returned
// uncached (an unparsable text has no canonical form to key by); all
// later deterministic failures are memoized too, so an infeasible
// candidate is rejected once per cache lifetime.
func (p *Pipeline) EvaluateKernel(isdlSrc, kernel, workload string) (*Evaluation, error) {
	return p.EvaluateKernelTraced(isdlSrc, kernel, workload, nil)
}

// EvaluateKernelTraced is EvaluateKernel with span linkage: executed
// stages become children of parent in the exported trace (the explorer
// passes its per-candidate span). A nil parent starts stage spans at the
// root; with a nil Obs registry it behaves exactly like EvaluateKernel.
func (p *Pipeline) EvaluateKernelTraced(isdlSrc, kernel, workload string, parent *obs.Span) (*Evaluation, error) {
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
	return p.EvaluateDescription(d, isdl.Format(d), kernel, workload, parent)
}

// EvaluateDescription is the pipeline after Parse, for a description that
// is already analysed: d comes from isdl.Parse or isdl.Template.Derive and
// canon is isdl.Format(d), the text the memo is keyed by. The explorer
// hands every derived move here, so a candidate is parsed and formatted
// only once, when its move is derived. The caller must not modify d
// afterwards.
func (p *Pipeline) EvaluateDescription(d *isdl.Description, canon, kernel, workload string, parent *obs.Span) (*Evaluation, error) {
	ev := p.Evaluator
	if ev == nil {
		ev = NewEvaluator()
	}
	c := p.Cache
	if c == nil {
		return p.runStages(ev, d, kernel, workload, parent)
	}
	key := EvalKey(ev.settingsKey(), canon, kernel)
	if e, err, ok := c.Get(key); ok {
		return e, err
	}
	e, err := p.runStages(ev, d, kernel, workload, parent)
	c.Put(key, e, err)
	return e, err
}

// settingsKey renders the evaluator settings an evaluation's figures
// depend on, for the memo key: the technology library, the synthesis
// options and the instruction limit. SimBackend is left out on purpose —
// the backends agree by contract (the gauntlet checks it).
func (ev *Evaluator) settingsKey() string {
	var lib tech.Library
	if ev.Lib != nil {
		lib = *ev.Lib
	}
	return fmt.Sprintf("%+v %+v %d", lib, ev.Synthesis, ev.MaxInstructions)
}

// runStages is the post-parse pipeline.
func (p *Pipeline) runStages(ev *Evaluator, d *isdl.Description, kernel, workload string, parent *obs.Span) (*Evaluation, error) {
	// Codegen: with the aot backend, generating and natively compiling the
	// specialized simulator is a first-class pipeline stage — spanned and
	// timed like the others — so the cost the paper attributes to
	// simulator generation (§3.3) is visible in the same instruments. A
	// codegen failure downgrades this evaluation to the compiled backend;
	// it never fails the candidate.
	simBackend := ev.SimBackend
	if simBackend == xsim.BackendAOT {
		if err := p.runCodegen(parent, d); err != nil {
			simBackend = xsim.BackendCompiled
		}
	}

	asmText, err := stageRun(p, parent, StageCompile, func() (string, error) {
		return compiler.Compile(d, kernel)
	})
	if err != nil {
		return nil, err
	}
	prog, err := stageRun(p, parent, StageAssemble, func() (*asm.Program, error) {
		return asm.Assemble(d, asmText)
	})
	if err != nil {
		return nil, err
	}
	var cycles uint64
	stats, err := stageRun(p, parent, StageSimulate, func() (st *xsim.Stats, err error) {
		cycles, st, err = runSimulation(d, prog, ev.MaxInstructions, workload, simBackend, p.Obs)
		return st, err
	})
	if err != nil {
		return nil, err
	}
	hw, err := stageRun(p, parent, StageSynthesize, func() (*hgen.Result, error) {
		hw, err := hgen.Synthesize(d, ev.Lib, ev.Synthesis)
		if err != nil {
			return nil, fmt.Errorf("core: synthesize: %w", err)
		}
		if p.Obs != nil {
			publishSynth(p.Obs, hw)
		}
		return hw, nil
	})
	if err != nil {
		return nil, err
	}

	// Combine: pure arithmetic over the two stages' results, timed but not
	// spanned.
	var start time.Time
	if p.Obs != nil {
		start = time.Now()
	}
	e := combine(d.Name, workload, cycles, stats, hw, ev.Lib)
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
// description; gensim's build cache makes a repeat cheap.
func (p *Pipeline) runCodegen(parent *obs.Span, d *isdl.Description) error {
	r := p.Obs
	if r == nil {
		_, err := gensim.Build(d)
		return err
	}
	var sp *obs.Span
	if parent != nil {
		sp = parent.Child(StageCodegen.String())
	} else {
		sp = r.StartSpan(StageCodegen.String())
	}
	start := time.Now()
	br, err := gensim.Build(d)
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
	return err
}

// runSimulation executes a program on a fresh engine of the requested
// backend and returns its cycle count and statistics; the engine's own perf
// counters are published into the registry (they are per-run deltas here,
// so repeated publishes sum to the total simulated work).
func runSimulation(d *isdl.Description, prog *asm.Program, limit int64, workload string, backend xsim.Backend, r *obs.Registry) (uint64, *xsim.Stats, error) {
	eng, info, err := xsim.NewEngine(d, backend)
	if err != nil {
		return 0, nil, fmt.Errorf("core: simulator backend: %w", err)
	}
	defer eng.Close()
	if r != nil && info.FallbackReason != "" {
		r.Counter("sim.backend.fallback").Inc()
	}
	if err := eng.Load(prog); err != nil {
		return 0, nil, fmt.Errorf("core: load: %w", err)
	}
	if limit <= 0 {
		limit = 100_000_000
	}
	err = eng.Run(limit)
	if r != nil {
		eng.Perf().Publish(r)
	}
	if err != nil {
		return 0, nil, fmt.Errorf("core: simulate: %w", err)
	}
	if !eng.Halted() {
		return 0, nil, fmt.Errorf("core: workload %s did not halt within %d instructions", workload, limit)
	}
	return eng.Cycle(), eng.Stats(), nil
}

// stageRun runs one stage, instrumented with a latency histogram and a
// span when the pipeline has a registry.
func stageRun[T any](p *Pipeline, parent *obs.Span, s Stage, run func() (T, error)) (T, error) {
	r := p.Obs
	if r == nil {
		return run()
	}
	var sp *obs.Span
	if parent != nil {
		sp = parent.Child(s.String())
	} else {
		sp = r.StartSpan(s.String())
	}
	start := time.Now()
	t, err := run()
	r.Histogram("stage." + s.String() + ".ns").Observe(time.Since(start))
	if err != nil {
		sp.SetArg("err", err.Error())
	}
	sp.End()
	return t, err
}
