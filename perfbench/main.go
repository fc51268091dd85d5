// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed through the public entry points of the Figure 1
// loop (exploration, the staged pipeline, XSIM, HGEN), checks every output,
// and prints the end-to-end metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 1 the first half of the timed phase runs untraced and the
// second half with an obs.Registry attached, and the last line holds the
// per-layer metrics instead, with the tracing overhead. The benchmark
// times the calls it makes from its own files; it adds no instrumentation
// to the program. See README.md for the workloads and the metric map.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload explore-spam -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: explore-spam, sweep-riscv5 or sim-long")
	seed := fs.Int64("seed", 1, "seed for the workload's input data")
	seconds := fs.Float64("seconds", 30, "how long the timed phase measures")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	traceOut := fs.String("trace-out", "", "Chrome trace of the benchmark's spans (default .bench_build/perfbench/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %v), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-%d.json", *name, *seed))
	}

	printEnv(stdout, ".")
	b := newBench(*name, *seed, *seconds, *trace == 1, fullSize, stdout)
	if err := w(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if b.traced {
		if err := b.writeTrace(*traceOut); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "benchmark spans written to %s\n", *traceOut)
	}
	b.report()
	line, err := json.Marshal(b.result())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
