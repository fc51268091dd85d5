package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/suite"
	"repro/internal/xsim"
)

// workloads maps each workload name to its runner. Why each exists is in
// BENCHMARK.json and README.md.
var workloads = map[string]func(*bench) error{
	"explore-spam": exploreSPAM,
	"sweep-riscv5": sweepRISCV5,
	"sim-long":     simLong,
}

func workloadNames() []string { return []string{"explore-spam", "sweep-riscv5", "sim-long"} }

// simLimit bounds every simulation the benchmark runs itself.
const simLimit = 100_000_000

type leg struct {
	label string
	w     explore.Weights
}

type exploreSpec struct {
	machine string
	mem     string // the data memory the FIR kernel's arrays live in
	iters   int
	legs    []leg
	// shared makes the legs of one repetition share one core.EvalCache, the
	// way a weight sweep reuses results; otherwise every leg gets a fresh
	// per-run cache.
	shared bool
}

// exploreSPAM: one hill climb on SPAM, the paper's own machine class, where
// synthesis dominates candidate cost and the stage cache almost never hits.
func exploreSPAM(b *bench) error {
	return runExplore(b, exploreSpec{machine: "spam", mem: "DMX", iters: b.sz.spamIters,
		legs: []leg{{"default", explore.DefaultWeights()}}})
}

// sweepRISCV5: three hill climbs over one kernel on riscv5 under a
// runtime-, an area- and a power-heavy weighting, sharing one cache. Parse,
// assemble and simulator warm-up dominate here, and the cache is read.
func sweepRISCV5(b *bench) error {
	return runExplore(b, exploreSpec{machine: "riscv5", mem: "DMEM", iters: b.sz.sweepIters, shared: true,
		legs: []leg{
			{"runtime", explore.Weights{Runtime: 1, Area: 0.05, Power: 0.01}},
			{"area", explore.Weights{Runtime: 0.1, Area: 1, Power: 0.01}},
			{"power", explore.Weights{Runtime: 0.1, Area: 0.05, Power: 1}},
		}})
}

// exploreInput is what set-up produces for an exploration workload.
type exploreInput struct {
	base, kernel string
}

// legRun is one exploration leg's outcome as the benchmark observed it.
type legRun struct {
	res                         *explore.Result
	err                         error
	cands, infeasible, accepted int
	instructions                uint64
	wall                        time.Duration
	// digest covers the result report and every candidate's simulated
	// figures in move order; repetitions must reproduce it exactly.
	digest [sha256.Size]byte
}

func zooSource(name string) (string, error) {
	for _, z := range machines.Zoo() {
		if z.Name == name {
			return z.Source, nil
		}
	}
	return "", fmt.Errorf("no zoo machine %q", name)
}

func runExplore(b *bench, spec exploreSpec) error {
	src, err := zooSource(spec.machine)
	if err != nil {
		return err
	}
	in, err := setup(b, func() (exploreInput, error) {
		r := rand.New(rand.NewSource(b.seed))
		kernel := firKernel(r, spec.mem, b.sz.firTaps, b.sz.firOuts, b.sz.firCoef)
		d, err := isdl.Parse(src)
		if err != nil {
			return exploreInput{}, err
		}
		// The golden reference on the base machine: a kernel that cannot
		// run there is a set-up error, not a measurement.
		start := time.Now()
		_, _, _, err = suite.Prepare(&suite.Workload{Name: "fir", Kernel: kernel}, d)
		b.lt.add("prepare", time.Since(start))
		return exploreInput{base: src, kernel: kernel}, err
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}

	first := map[int]legRun{}
	// phase runs the timed repetitions; prefix names its rate samples.
	phase := func(seconds float64, reg *obs.Registry, prefix string) (reps int, wall time.Duration) {
		reps = b.repeat(seconds, func(i int) {
			xsim.SharedOpCache().Clear() // each repetition starts as cold as a fresh process
			var cache *core.EvalCache
			if spec.shared {
				cache = core.NewEvalCache()
			}
			var evals, instrs uint64
			var repWall time.Duration
			for li, l := range spec.legs {
				sp := b.span(fmt.Sprintf("leg %s rep %d", l.label, i))
				run := sp.Child("explore.Run")
				lr := runLeg(in, l, spec.iters, cache, reg)
				run.End()
				evals += uint64(lr.cands + lr.infeasible)
				instrs += lr.instructions
				repWall += lr.wall
				var ref *legRun
				if f, ok := first[li]; ok {
					ref = &f
				}
				if b.verifyLeg(fmt.Sprintf("%s leg %s rep %d", b.name, l.label, i), lr, ref, in.kernel, sp) && ref == nil {
					first[li] = lr
					b.exact["best_score"] += lr.res.Final.Score(l.w.Runtime, l.w.Area, l.w.Power) / float64(len(spec.legs))
					b.exact["sim_cycles"] += float64(lr.res.Final.Cycles)
				}
				sp.End()
				if reg != nil && i == 0 {
					b.lt.count("explore.candidates", lr.cands)
					b.lt.count("explore.infeasible", lr.infeasible)
					b.lt.count("explore.accepted", lr.accepted)
				}
			}
			b.rates[prefix+"cand_per_s"] = append(b.rates[prefix+"cand_per_s"], float64(evals)/repWall.Seconds())
			b.rates[prefix+"sim_mips"] = append(b.rates[prefix+"sim_mips"], float64(instrs)/float64(repWall.Microseconds()))
			wall += repWall
		})
		return
	}

	reps, wall := b.timedPhases(phase)
	if !b.traced {
		b.endToEnd()
		return nil
	}
	b.lt.fromRegistry(b.layer)
	b.layerMetrics(reps, exploreWorkers, wall)
	return nil
}

// runLeg runs one hill-climb exploration and observes its events.
func runLeg(in exploreInput, l leg, iters int, cache *core.EvalCache, reg *obs.Registry) legRun {
	var lr legRun
	h := sha256.New()
	opts := []explore.Option{
		explore.WithWeights(l.w), explore.WithMaxIters(iters), explore.WithWorkers(exploreWorkers),
		explore.WithLog(func(ev explore.Event) {
			switch ev.Kind {
			case "candidate", "infeasible":
				if ev.Kind == "candidate" {
					lr.cands++
				} else {
					lr.infeasible++
				}
				fmt.Fprintf(h, "%s %s", ev.Kind, ev.Action)
				if e := ev.Eval; e != nil {
					lr.instructions += e.Instructions
					fmt.Fprintf(h, " %d %d", e.Cycles, e.Instructions)
					if e.Stats != nil {
						fmt.Fprintf(h, " %d %d", e.Stats.DataStalls, e.Stats.StructStalls)
					}
				}
				fmt.Fprintln(h)
			case "accept":
				lr.accepted++
			}
		}),
	}
	if cache != nil {
		opts = append(opts, explore.WithCache(cache))
	}
	if reg != nil {
		opts = append(opts, explore.WithObs(reg))
	}
	start := time.Now()
	lr.res, lr.err = explore.New(in.base, in.kernel, opts...).Run()
	lr.wall = time.Since(start)
	if lr.err == nil {
		fmt.Fprint(h, lr.res.Report())
	}
	copy(lr.digest[:], h.Sum(nil))
	return lr
}

// verifyLeg counts one exploration leg as an op: it fails when the run
// returned an error, when replaying its final design disagrees, or when it
// differs from the first repetition of the same leg.
func (b *bench) verifyLeg(what string, lr legRun, first *legRun, kernel string, parent *obs.Span) bool {
	err := lr.err
	if err == nil {
		err = replay(parent, lr.res, kernel)
	}
	if err == nil && first != nil && lr.digest != first.digest {
		err = fmt.Errorf("result digest or simulated figures differ from the first repetition")
	}
	return b.op(what, err)
}

// replay rebuilds Result.FinalSource through the public tool entry points —
// parse, compile, assemble, simulate, synthesize, combine — and requires the
// figures to equal Result.Final exactly and the kernel's output to equal the
// golden reference on the final design.
func replay(parent *obs.Span, res *explore.Result, kernel string) error {
	stage := func(name string, fn func() error) error {
		sp := parent.Child("replay " + name)
		defer sp.End()
		if err := fn(); err != nil {
			return fmt.Errorf("replay %s: %w", name, err)
		}
		return nil
	}
	var (
		d    *isdl.Description
		text string
		prog *asm.Program
		sim  *xsim.Simulator
		hw   *hgen.Result
		ref  []uint64
		out  suite.Out
	)
	ev := core.NewEvaluator()
	err := stage("parse", func() (err error) { d, err = isdl.Parse(res.FinalSource); return })
	if err == nil {
		err = stage("compile", func() (err error) { text, err = compiler.Compile(d, kernel); return })
	}
	if err == nil {
		err = stage("assemble", func() (err error) { prog, err = asm.Assemble(d, text); return })
	}
	if err == nil {
		err = stage("simulate", func() error {
			sim = xsim.New(d)
			if err := sim.Load(prog); err != nil {
				return err
			}
			return halted(sim, sim.Run(simLimit))
		})
	}
	if err == nil {
		err = stage("synthesize", func() (err error) { hw, err = hgen.Synthesize(d, ev.Lib, ev.Synthesis); return })
	}
	if err == nil {
		err = stage("combine", func() error {
			return sameFigures(res.Final, core.Combine(d, res.Final.Workload, sim, hw, ev.Lib))
		})
	}
	if err == nil {
		err = stage("reference", func() (err error) {
			_, out, ref, err = suite.Prepare(&suite.Workload{Name: "fir", Kernel: kernel}, d)
			if err != nil {
				return err
			}
			return sameOutput(sim, out, ref)
		})
	}
	return err
}

// halted turns a run error, a fault or a run that never halted into an error.
func halted(e xsim.Engine, runErr error) error {
	if runErr != nil {
		return runErr
	}
	if err := e.Err(); err != nil {
		return fmt.Errorf("faulted: %w", err)
	}
	if !e.Halted() {
		return fmt.Errorf("did not halt within %d instructions", simLimit)
	}
	return nil
}

// sameFigures requires a replayed evaluation to equal the exploration's
// bit for bit on the figures the objective reads.
func sameFigures(want, got *core.Evaluation) error {
	switch {
	case got.Cycles != want.Cycles:
		return fmt.Errorf("cycles %d, Result.Final has %d", got.Cycles, want.Cycles)
	case got.CycleNs != want.CycleNs:
		return fmt.Errorf("cycle-ns %v, Result.Final has %v", got.CycleNs, want.CycleNs)
	case got.AreaCells != want.AreaCells:
		return fmt.Errorf("area %v, Result.Final has %v", got.AreaCells, want.AreaCells)
	case got.PowerMW != want.PowerMW:
		return fmt.Errorf("power %v mW, Result.Final has %v", got.PowerMW, want.PowerMW)
	}
	return nil
}

// sameOutput compares an engine's output region with the golden reference.
func sameOutput(e xsim.Engine, out suite.Out, ref []uint64) error {
	vals, ok := e.Snapshot()[out.Storage]
	if !ok || out.Base+out.N > len(vals) || len(ref) != out.N {
		return fmt.Errorf("output region %s[%d..+%d] not readable", out.Storage, out.Base, out.N)
	}
	for i, want := range ref {
		if got := vals[out.Base+i].Uint64(); got != want {
			return fmt.Errorf("output %s[%d] = %d, golden reference %d", out.Storage, out.Base+i, got, want)
		}
	}
	return nil
}
