package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/internal/obs"
)

// sizes fixes the amount of work in one run. fullSize is what the benchmark
// measures; the tests use smaller sizes so a smoke run takes seconds.
type sizes struct {
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// minReps is the least number of repetitions of the timed phase: every
	// reported rate is a median over at least this many samples, and
	// repetitions are compared with each other for determinism.
	minReps int
	// Exploration: hill-climb iteration budgets and the FIR kernel shape.
	spamIters, sweepIters     int
	firTaps, firOuts, firCoef int
	// sim-long kernels.
	longTaps, longOuts, longCoef int
	matN, matSum                 int
	sortN, sortInv               int
}

var fullSize = sizes{
	setups: 21, minReps: 3,
	spamIters: 3, sweepIters: 16,
	firTaps: 4, firOuts: 8, firCoef: 6,
	longTaps: 16, longOuts: 96, longCoef: 96,
	matN: 8, matSum: 256,
	sortN: 64, sortInv: 1000,
}

// exploreWorkers is the exploration pool size. One worker, not one per
// CPU: on a shared two-vCPU host the second vCPU comes and goes, and with
// two workers cand_per_s switched between about 49/s (no parallel speedup)
// and about 80/s on explore-spam from one minute to the next, while one
// worker stayed within its usual drift. GC still runs on the other CPU.
const exploreWorkers = 1

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run of one workload.
type bench struct {
	name    string
	seed    int64
	seconds float64
	traced  bool
	sz      sizes
	out     io.Writer

	attempted, failed int

	// setupS holds one sample per set-up; the timed phase appends one
	// sample per repetition to rates (cand_per_s, sim_mips).
	setupS []float64
	rates  map[string][]float64
	// exact holds figures that must not vary: best_score, sim_cycles.
	exact map[string]float64

	// spans holds the benchmark's own spans (traced runs only); layer
	// receives the program's metrics through its public hooks.
	spans *obs.Registry
	layer *obs.Registry
	lt    *layerTimes

	metrics map[string]metric
	notes   map[string]string
}

func newBench(name string, seed int64, seconds float64, traced bool, sz sizes, out io.Writer) *bench {
	b := &bench{name: name, seed: seed, seconds: seconds, traced: traced, sz: sz, out: out,
		rates: map[string][]float64{}, exact: map[string]float64{},
		lt: newLayerTimes(), metrics: map[string]metric{}, notes: map[string]string{}}
	if traced {
		b.spans = obs.NewRegistry()
	}
	return b
}

// op records one operation (an exploration leg or a simulation run) and
// whether it passed every check. A failure is printed with its cause.
func (b *bench) op(what string, err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.out, "FAIL %s: %v\n", what, err)
		return false
	}
	return true
}

// setup runs fn sz.setups times, timing each, and keeps the last result.
func setup[T any](b *bench, fn func() (T, error)) (T, error) {
	var v T
	for i := 0; i < b.sz.setups; i++ {
		start := time.Now()
		var err error
		if v, err = fn(); err != nil {
			return v, err
		}
		b.setupS = append(b.setupS, time.Since(start).Seconds())
	}
	return v, nil
}

// repeat runs rep until the phase has lasted seconds and at least minReps
// repetitions ran.
func (b *bench) repeat(seconds float64, rep func(i int)) int {
	start := time.Now()
	i := 0
	for ; i < b.sz.minReps || time.Since(start).Seconds() < seconds; i++ {
		rep(i)
	}
	return i
}

// timedPhases runs a workload's timed phase: untraced for the whole run, or
// in a traced run untraced for half of it and then traced into a fresh
// registry. It returns the traced phase's repetitions and wall time.
func (b *bench) timedPhases(phase func(seconds float64, reg *obs.Registry, prefix string) (int, time.Duration)) (int, time.Duration) {
	if !b.traced {
		phase(b.seconds, nil, "")
		return 0, 0
	}
	phase(b.seconds/2, nil, "")
	b.layer = obs.NewRegistry()
	return phase(b.seconds/2, b.layer, "traced.")
}

func (b *bench) span(name string) *obs.Span { return b.spans.StartSpan(name) }

func (b *bench) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.spans.WriteTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// quartiles returns the median and the first and third quartiles.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		lo := int(math.Floor(x))
		hi := min(lo+1, len(s)-1)
		return s[lo] + (x-float64(lo))*(s[hi]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// sampled sets a metric to the median of its samples and prints the whole
// sample set, so no figure rests on a single repetition.
func (b *bench) sampled(name, unit string, v []float64) {
	q1, med, q3 := quartiles(v)
	fmt.Fprintf(b.out, "samples %-12s n=%d median=%.6g q1=%.6g q3=%.6g %s %.4g\n", name, len(v), med, q1, q3, unit, v)
	b.metrics[name] = metric{med, unit}
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// endToEnd fills the end-to-end metrics of an untraced run.
func (b *bench) endToEnd() {
	b.sampled("setup_s", "s", b.setupS)
	b.sampled("cand_per_s", "1/s", b.rates["cand_per_s"])
	b.sampled("sim_mips", "instr/us", b.rates["sim_mips"])
	b.metrics["best_score"] = metric{b.exact["best_score"], "score"}
	b.metrics["sim_cycles"] = metric{b.exact["sim_cycles"], "cycles"}
	b.metrics["max_rss_mb"] = metric{maxRSSMB(), "MB"}
}

// report prints every metric by name with its unit, and the error rate.
func (b *bench) report() {
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		line := fmt.Sprintf("metric %-28s %14.6g %-8s", n, m.Value, m.Unit)
		if note := b.notes[n]; note != "" {
			line += "  " + note
		}
		fmt.Fprintln(b.out, line)
	}
	fmt.Fprintf(b.out, "error_rate %d/%d failed ops\n", b.failed, b.attempted)
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (b *bench) result() result {
	return result{Correct: b.failed == 0 && b.attempted > 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
}
