package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/suite"
	"repro/internal/xsim"
)

// simPair is one long kernel prepared for one zoo machine.
type simPair struct {
	machine, kernel string
	d               *isdl.Description
	prog            *asm.Program
	out             suite.Out
	ref             []uint64
}

func (p *simPair) String() string { return p.kernel + " on " + p.machine }

// longKernels generates the scaled-up portable kernels from the seed.
func longKernels(seed int64, sz sizes) [][2]string {
	r := rand.New(rand.NewSource(seed))
	return [][2]string{
		{"fir", firKernel(r, suite.DataPlaceholder, sz.longTaps, sz.longOuts, sz.longCoef)},
		{"matmul", matmulKernel(r, suite.DataPlaceholder, sz.matN, sz.matSum)},
		{"isort", isortKernel(r, suite.DataPlaceholder, sz.sortN, sz.sortInv)},
	}
}

// prepareLong parses every zoo machine and prepares every long kernel the
// machine supports, with its golden reference output.
func prepareLong(b *bench) ([]*simPair, []string, error) {
	var pairs []*simPair
	var skipped []string
	for _, z := range machines.Zoo() {
		start := time.Now()
		d, err := isdl.Parse(z.Source)
		b.lt.add("parse", time.Since(start))
		if err != nil {
			return nil, nil, fmt.Errorf("parse %s: %w", z.Name, err)
		}
		for _, k := range longKernels(b.seed, b.sz) {
			start := time.Now()
			prog, out, ref, err := suite.Prepare(&suite.Workload{Name: k[0], Kernel: k[1]}, d)
			b.lt.add("prepare", time.Since(start))
			var u *suite.Unsupported
			if errors.As(err, &u) {
				skipped = append(skipped, k[0]+" on "+z.Name)
				continue
			}
			if err != nil {
				return nil, nil, err
			}
			pairs = append(pairs, &simPair{machine: z.Name, kernel: k[0], d: d, prog: prog, out: out, ref: ref})
		}
	}
	return pairs, skipped, nil
}

// simLong runs every prepared (machine, kernel) pair on a fresh compiled
// engine per run and checks each output against the golden reference.
func simLong(b *bench) error {
	type prepared struct {
		pairs   []*simPair
		skipped []string
	}
	p, err := setup(b, func() (prepared, error) {
		pairs, skipped, err := prepareLong(b)
		return prepared{pairs, skipped}, err
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if len(p.pairs) == 0 {
		return fmt.Errorf("set-up: no zoo machine supports the long kernels")
	}
	fmt.Fprintf(b.out, "sim-long: %d runs per pass; unsupported: %v\n", len(p.pairs), p.skipped)

	first := map[*simPair]xsim.Stats{}
	phase := func(seconds float64, reg *obs.Registry, prefix string) (passes int, wall time.Duration) {
		passes = b.repeat(seconds, func(i int) {
			xsim.SharedOpCache().Clear()
			var instrs, cycles uint64
			var simNs time.Duration
			for _, sp := range p.pairs {
				st, warm, run, err := b.simRun(sp, reg, i)
				simNs += warm + run
				if err == nil {
					if f, ok := first[sp]; !ok {
						first[sp] = st
					} else if !sameStats(f, st) {
						err = fmt.Errorf("simulated stats differ from the first pass")
					}
				}
				if b.op(fmt.Sprintf("sim-long %s pass %d", sp, i), err) {
					instrs += st.Instructions
					cycles += st.Cycles
				}
				if reg != nil {
					b.lt.add("run", run)
					b.lt.add("simulate", warm+run)
				}
			}
			b.rates[prefix+"cand_per_s"] = append(b.rates[prefix+"cand_per_s"], float64(len(p.pairs))/simNs.Seconds())
			b.rates[prefix+"sim_mips"] = append(b.rates[prefix+"sim_mips"], float64(instrs)/float64(simNs.Microseconds()))
			b.exact["sim_cycles"] = float64(cycles)
			wall += simNs
		})
		return
	}

	passes, wall := b.timedPhases(phase)
	score, err := b.bestZooScore(p.pairs, first)
	if err != nil {
		return err
	}
	b.exact["best_score"] = score
	if b.traced {
		b.layerMetrics(passes, 0, wall)
	} else {
		b.endToEnd()
	}
	return nil
}

// simRun is one measured simulation: NewEngine + Load is the warm-up, Run
// the steady state. The output region must equal the golden reference.
func (b *bench) simRun(p *simPair, reg *obs.Registry, pass int) (st xsim.Stats, warm, run time.Duration, err error) {
	sp := b.span(fmt.Sprintf("sim %s pass %d", p, pass))
	defer sp.End()
	start := time.Now()
	eng, _, err := xsim.NewEngine(p.d, xsim.BackendCompiled)
	if err != nil {
		return st, 0, 0, err
	}
	defer eng.Close()
	err = eng.Load(p.prog)
	warm = time.Since(start)
	if err != nil {
		return st, warm, 0, err
	}
	start = time.Now()
	err = eng.Run(simLimit)
	run = time.Since(start)
	if err = halted(eng, err); err != nil {
		return st, warm, run, err
	}
	if reg != nil {
		eng.Perf().Publish(reg)
	}
	st = *eng.Stats()
	return st, warm, run, sameOutput(eng, p.out, p.ref)
}

func sameStats(a, b xsim.Stats) bool {
	return a.Cycles == b.Cycles && a.Instructions == b.Instructions &&
		a.DataStalls == b.DataStalls && a.StructStalls == b.StructStalls
}

// bestZooScore scores every zoo machine on the long kernels the way the
// exploration objective would (DefaultWeights over core.Combine of a
// simulation and the machine's synthesized hardware model) and returns the
// mean over kernels of the best machine's score. It runs after the timed
// phase. Each simulation here is an op that must reproduce the timed runs'
// figures through xsim.New rather than xsim.NewEngine.
func (b *bench) bestZooScore(pairs []*simPair, timed map[*simPair]xsim.Stats) (float64, error) {
	ev := core.NewEvaluator()
	w := explore.DefaultWeights()
	hw := map[*isdl.Description]*hgen.Result{}
	best := map[string]float64{}
	for _, p := range pairs {
		if hw[p.d] == nil {
			start := time.Now()
			r, err := hgen.Synthesize(p.d, ev.Lib, ev.Synthesis)
			if err != nil {
				return 0, fmt.Errorf("synthesize %s: %w", p.machine, err)
			}
			b.lt.add("synthesize", time.Since(start))
			b.lt.addNs("share", 1, r.PhaseSeconds["share"]*1e9)
			b.lt.addNs("retime", 1, r.PhaseSeconds["retime"]*1e9)
			hw[p.d] = r
		}
		sim := xsim.New(p.d)
		err := sim.Load(p.prog)
		if err == nil {
			err = halted(sim, sim.Run(simLimit))
		}
		if err == nil && !sameStats(*sim.Stats(), timed[p]) {
			err = fmt.Errorf("xsim.New run differs from the timed xsim.NewEngine runs")
		}
		if !b.op(fmt.Sprintf("sim-long score %s", p), err) {
			continue
		}
		s := core.Combine(p.d, p.kernel, sim, hw[p.d], ev.Lib).Score(w.Runtime, w.Area, w.Power)
		if v, ok := best[p.kernel]; !ok || s < v {
			best[p.kernel] = s
		}
	}
	sum := 0.0
	for _, s := range best {
		sum += s
	}
	if len(best) == 0 {
		return math.NaN(), fmt.Errorf("no machine could be scored")
	}
	return sum / float64(len(best)), nil
}
