// Command explore runs architecture exploration (paper §1, Figure 1):
// starting from a base ISDL description, it mutates the instruction set,
// recompiles the kernel with the retargetable compiler, re-evaluates every
// candidate with the generated simulator and hardware model, and searches
// the run-time/area/power objective with a pluggable strategy.
//
// Usage:
//
//	explore -m spam2 -k kernel.k [-strategy hill|beam|pareto] [-beam 4]
//	        [-max-runtime us] [-max-area cells] [-max-power mw]
//	        [-frontier-out frontier.json|frontier.csv] [-frontier-cap n]
//	        [-restarts n] [-seed s] [-iters 8] [-workers n]
//	        [-sim-backend interp|compiled|aot]
//	        [-no-cache] [-store dir:PATH] [-o best.isdl]
//
// Strategies (-strategy, docs/EXPLORE.md):
//
//   - hill (default): accept the best improving neighbour each iteration,
//     stop at the first local optimum.
//   - beam: keep the -beam best candidates alive per iteration and
//     evaluate the union of their neighbours (deduplicated by canonical
//     ISDL), escaping optima hill climbing stops at.
//   - pareto: keep the whole non-dominated (run time, area, power)
//     frontier instead of a scalar top-K, under optional hard constraints
//     (-max-runtime/-max-area/-max-power; violating candidates are scored
//     but never enter the frontier). One run answers every objective
//     weighting; -frontier-out emits the trade-off curve as JSON or CSV
//     (by extension) for plotting, and -frontier-cap bounds the frontier
//     by deterministic crowding-distance truncation.
//
// -restarts n additionally re-runs the chosen strategy from n seeded
// random perturbations of the base (deterministic for a fixed -seed) and
// reports each restart's best plus the global winner.
//
// Neighbour candidates within an iteration are evaluated concurrently
// (-workers, default NumCPU) and every evaluation is memoized across
// iterations and restarts (see docs/PIPELINE.md); for every strategy the
// result is bit-identical to a sequential, uncached run.
//
// -store dir:PATH backs the memo with a store directory (docs/PIPELINE.md)
// that any number of concurrent processes may share, and the one way to
// reuse results across runs. Every evaluation is read from and written
// through to the directory, so two explorers sharing it never evaluate the
// same architecture twice.
//
// The run is instrumented end to end (docs/OBSERVABILITY.md): -trace-out
// writes a Chrome trace_event file (open in chrome://tracing or
// ui.perfetto.dev), -metrics-out writes the metrics registry as JSON, and
// a summary table of counters and per-stage latencies goes to stderr. All
// output files are written atomically (temp + rename), so a crash never
// leaves a truncated file behind. -pprof ADDR serves net/http/pprof while
// the exploration runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on DefaultServeMux; exposed only with -pprof
	"os"
	"strings"

	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/xsim"
)

func main() {
	machine := flag.String("m", "", "base machine: .isdl file or builtin (toy, spam, spam2)")
	kernelFile := flag.String("k", "", "kernel-language workload file")
	strategy := flag.String("strategy", "hill", "search strategy: hill (first local optimum), beam (top-K frontier) or pareto (non-dominated frontier)")
	beamWidth := flag.Int("beam", 4, "frontier width for -strategy beam")
	maxRuntime := flag.Float64("max-runtime", 0, "pareto hard constraint: maximum run time in us (0 = unconstrained)")
	maxArea := flag.Float64("max-area", 0, "pareto hard constraint: maximum die size in grid cells (0 = unconstrained)")
	maxPower := flag.Float64("max-power", 0, "pareto hard constraint: maximum power in mW (0 = unconstrained)")
	frontierOut := flag.String("frontier-out", "", "write the pareto frontier here as .json or .csv (by extension)")
	frontierCap := flag.Int("frontier-cap", 0, "cap the pareto frontier by crowding-distance truncation (0 = unbounded)")
	restarts := flag.Int("restarts", 0, "seeded random restarts around the chosen strategy (0 = none)")
	seed := flag.Int64("seed", 1, "perturbation seed for -restarts (fixed seed = byte-identical run)")
	iters := flag.Int("iters", 8, "maximum improvement iterations (per restart)")
	workers := flag.Int("workers", 0, "concurrent candidate evaluations per iteration (0 = NumCPU)")
	simBackend := flag.String("sim-backend", "", "simulator backend for evaluations: interp, compiled (default) or aot (docs/GENSIM.md)")
	noCache := flag.Bool("no-cache", false, "disable evaluation memoization across iterations")
	storeSpec := flag.String("store", "", "shared artifact store directory: dir:PATH (see docs/PIPELINE.md)")
	out := flag.String("o", "", "write the winning ISDL description here")
	wRun := flag.Float64("w-runtime", 1, "objective weight: run time (us)")
	wArea := flag.Float64("w-area", 0.5, "objective weight: area (10k grid cells)")
	wPow := flag.Float64("w-power", 0.2, "objective weight: power (mW)")
	metricsOut := flag.String("metrics-out", "", "write the metrics registry here as JSON")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON file here (chrome://tracing, Perfetto)")
	quietObs := flag.Bool("no-summary", false, "suppress the metrics summary table on stderr")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address while running")
	flag.Parse()
	if *machine == "" || *kernelFile == "" {
		fmt.Fprintln(os.Stderr, "usage: explore -m <machine> -k <kernel.k> [-strategy hill|beam|pareto] [-beam w] [-max-area a -max-power p -frontier-out f.json] [-restarts n] [-seed s] [-iters n] [-o best.isdl]")
		os.Exit(2)
	}
	// Reject a meaningless objective before any evaluation runs: NaN,
	// negative or all-zero weights would otherwise silently score every
	// candidate into an accept test that never fires.
	weights := explore.Weights{Runtime: *wRun, Area: *wArea, Power: *wPow}
	if err := weights.Validate(); err != nil {
		fatal(err)
	}
	constraints := explore.Constraints{MaxRuntimeUs: *maxRuntime, MaxArea: *maxArea, MaxPowerMW: *maxPower}
	if err := constraints.Validate(); err != nil {
		fatal(err)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case *strategy != "pareto" && constraints.Active():
		fatal(fmt.Errorf("-max-runtime/-max-area/-max-power require -strategy pareto"))
	case *strategy != "pareto" && *frontierOut != "":
		fatal(fmt.Errorf("-frontier-out requires -strategy pareto"))
	case *strategy != "pareto" && set["frontier-cap"]:
		fatal(fmt.Errorf("-frontier-cap requires -strategy pareto"))
	case *strategy != "beam" && set["beam"]:
		fatal(fmt.Errorf("-beam requires -strategy beam"))
	case *beamWidth < 1:
		fatal(fmt.Errorf("-beam %d: want a width of at least 1", *beamWidth))
	case *frontierCap < 0:
		fatal(fmt.Errorf("-frontier-cap %d: want 0 (unbounded) or a positive cap", *frontierCap))
	}
	frontierWriter, err := frontierWriterFor(*frontierOut)
	if err != nil {
		fatal(err) // bad extension: fail before the run, not after
	}
	baseSrc, err := machines.Source(*machine)
	if err != nil {
		fatal(err)
	}
	kernel, err := os.ReadFile(*kernelFile)
	if err != nil {
		fatal(err)
	}

	reg := obs.NewRegistry()
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, http.DefaultServeMux); err != nil {
				log.Println("explore: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "explore: pprof on %s (/debug/pprof/)\n", *pprofAddr)
	}

	var cache *core.EvalCache
	if !*noCache {
		cache = core.NewEvalCache()
		if *storeSpec != "" {
			root, err := storeDir(*storeSpec)
			if err == nil {
				err = cache.UseDir(root)
			}
			if err != nil {
				fatal(err)
			}
			fmt.Printf("sharing artifacts via %s\n", *storeSpec)
		}
	} else if *storeSpec != "" {
		fatal(fmt.Errorf("-store requires caching; drop -no-cache"))
	}

	sb, err := xsim.ParseBackend(*simBackend)
	if err != nil {
		fatal(err)
	}

	opts := []explore.Option{
		explore.WithWeights(weights),
		explore.WithMaxIters(*iters),
		explore.WithWorkers(*workers),
		explore.WithLog(func(ev explore.Event) { fmt.Println(ev.Line) }),
		explore.WithObs(reg),
	}
	if *simBackend != "" {
		ev := core.NewEvaluator()
		ev.SimBackend = sb
		opts = append(opts, explore.WithEvaluator(ev))
	}
	switch *strategy {
	case "hill":
		// The default HillClimb strategy.
	case "beam":
		opts = append(opts, explore.WithBeam(*beamWidth))
	case "pareto":
		opts = append(opts, explore.WithPareto(*frontierCap, constraints))
	default:
		fatal(fmt.Errorf("unknown -strategy %q (want hill, beam or pareto)", *strategy))
	}
	if *restarts > 0 {
		opts = append(opts, explore.WithRestarts(*restarts, *seed))
	}
	if *noCache {
		opts = append(opts, explore.WithoutCache())
	} else {
		opts = append(opts, explore.WithCache(cache))
	}
	res, err := explore.New(baseSrc, string(kernel), opts...).Run()
	if err != nil {
		fatal(err)
	}
	writeObsOutputs(reg, *metricsOut, *traceOut, *quietObs)
	fmt.Println()
	fmt.Print(res.Report())
	if cache != nil {
		opHits, opMisses := xsim.SharedOpCache().Stats()
		hits, misses := cache.Stats()
		fmt.Printf("eval cache: %d hits / %d misses\n", hits, misses)
		fmt.Printf("op-closure cache: %d reused / %d compiled\n", opHits, opMisses)
		if *storeSpec != "" {
			sh, sm, se := cache.StoreStats()
			fmt.Printf("blob store: %d served / %d absent / %d errors\n", sh, sm, se)
		}
	}
	if *frontierOut != "" {
		if err := atomicfile.WriteTo(*frontierOut, 0o644, func(w io.Writer) error {
			return frontierWriter(w, res.Frontier)
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote frontier %s (%d points)\n", *frontierOut, len(res.Frontier))
	}
	if *out != "" {
		if err := atomicfile.WriteFile(*out, []byte(res.FinalSource), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

// storeDir parses the -store spec: dir:PATH names the store directory, and
// any other form is rejected.
func storeDir(spec string) (string, error) {
	if root, ok := strings.CutPrefix(spec, "dir:"); ok && root != "" {
		return root, nil
	}
	return "", fmt.Errorf("-store %q: want dir:PATH", spec)
}

// frontierWriterFor picks the -frontier-out serializer by file extension
// (nil name = no output requested).
func frontierWriterFor(name string) (func(io.Writer, []explore.FrontierPoint) error, error) {
	switch {
	case name == "":
		return nil, nil
	case strings.HasSuffix(name, ".json"):
		return explore.WriteFrontierJSON, nil
	case strings.HasSuffix(name, ".csv"):
		return explore.WriteFrontierCSV, nil
	}
	return nil, fmt.Errorf("-frontier-out %q: want a .json or .csv name", name)
}

// writeObsOutputs emits the observability artifacts a run was asked
// for: the stderr summary, -metrics-out and -trace-out. Both files are
// written atomically, so a failing exporter leaves any existing file
// untouched.
func writeObsOutputs(reg *obs.Registry, metricsOut, traceOut string, quiet bool) {
	if !quiet {
		fmt.Fprintln(os.Stderr)
		if err := reg.WriteText(os.Stderr); err != nil {
			fatal(err)
		}
	}
	if metricsOut != "" {
		if err := atomicfile.WriteTo(metricsOut, 0o644, reg.WriteMetricsJSON); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote metrics %s\n", metricsOut)
	}
	if traceOut != "" {
		if err := atomicfile.WriteTo(traceOut, 0o644, reg.WriteTrace); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote trace %s (open in chrome://tracing or ui.perfetto.dev)\n", traceOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "explore:", err)
	os.Exit(1)
}
