package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/explore"
)

// smokeSize is the smallest run that still goes through every code path:
// repeated set-up, several repetitions compared for determinism, replay,
// the golden reference and the traced layer extraction.
var smokeSize = sizes{
	setups: 2, minReps: 2,
	spamIters: 1, sweepIters: 2,
	firTaps: 2, firOuts: 3, firCoef: 2,
	longTaps: 4, longOuts: 8, longCoef: 8,
	matN: 3, matSum: 9,
	sortN: 8, sortInv: 6,
}

type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func smokeRun(t *testing.T, name string, seed int64, traced bool) (*bench, string) {
	t.Helper()
	var out bytes.Buffer
	b := newBench(name, seed, 0.001, traced, smokeSize, &out)
	if err := workloads[name](b); err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	if traced {
		if err := b.writeTrace(filepath.Join(t.TempDir(), "trace.json")); err != nil {
			t.Fatal(err)
		}
	}
	b.report()
	return b, out.String()
}

// TestSmokeEmitsDeclaredMetrics runs every workload BENCHMARK.json declares,
// untraced and traced, and requires exactly the declared metrics with their
// declared units, every op passing, and a printed line per metric.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		for _, traced := range []bool{false, true} {
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			b, out := smokeRun(t, w.Name, 1, traced)
			res := b.result()
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d/%d ops failed\n%s", w.Name, traced, res.Failed, res.Attempted, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, declared %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.Name, traced, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, m.Name, got.Value)
				case !strings.Contains(out, "metric "+m.Name+" "):
					t.Errorf("%s traced=%v: metric %s not printed", w.Name, traced, m.Name)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s: result does not marshal: %v", w.Name, err)
			}
		}
	}
}

// TestSeedChangesDataNotWork pins the input design that keeps figures
// comparable across seeds: the seed changes the kernels' data and outputs,
// never the simulated work or the modelled score.
func TestSeedChangesDataNotWork(t *testing.T) {
	for _, name := range []string{"sim-long", "explore-spam"} {
		a, _ := smokeRun(t, name, 1, false)
		b, _ := smokeRun(t, name, 2, false)
		for _, m := range []string{"sim_cycles", "best_score"} {
			if a.metrics[m] != b.metrics[m] {
				t.Errorf("%s: %s differs between seeds: %v vs %v", name, m, a.metrics[m], b.metrics[m])
			}
		}
	}
	if longKernels(1, fullSize)[0][1] == longKernels(2, fullSize)[0][1] {
		t.Error("seeds 1 and 2 generate the same kernel data")
	}
}

func TestIsortInversions(t *testing.T) {
	src := isortKernel(rand.New(rand.NewSource(3)), "DATA", fullSize.sortN, fullSize.sortInv)
	open := strings.Index(src, "{ ") + 2
	var a []int
	for _, f := range strings.Split(src[open:strings.Index(src[open:], " }")+open], ", ") {
		var v int
		if _, err := fmt.Sscan(f, &v); err != nil {
			t.Fatal(err)
		}
		a = append(a, v)
	}
	inv := 0
	for i := range a {
		for j := 0; j < i; j++ {
			if a[j] > a[i] {
				inv++
			}
		}
		if i > 0 && a[0] > a[i] {
			t.Errorf("element %d (%d) is below the first element", i, a[i])
		}
	}
	if len(a) != fullSize.sortN || inv != fullSize.sortInv {
		t.Errorf("got %d elements with %d inversions, want %d with %d", len(a), inv, fullSize.sortN, fullSize.sortInv)
	}
}

// TestCorruptedOutputIsAFailedOp: a simulation whose output disagrees with
// the expected output is counted as a failed op, with the cause printed.
func TestCorruptedOutputIsAFailedOp(t *testing.T) {
	var out bytes.Buffer
	b := newBench("sim-long", 1, 0.001, false, smokeSize, &out)
	pairs, _, err := prepareLong(b)
	if err != nil {
		t.Fatal(err)
	}
	p := *pairs[0]
	if _, _, _, err := b.simRun(&p, nil, 0); !b.op("clean", err) {
		t.Fatalf("clean run failed: %v", err)
	}
	p.ref = append([]uint64(nil), p.ref...)
	p.ref[len(p.ref)-1] ^= 1
	_, _, _, err = b.simRun(&p, nil, 0)
	b.op("corrupted", err)
	if res := b.result(); res.Failed != 1 || res.Attempted != 2 || res.Correct {
		t.Errorf("corrupted expected output: %+v", res)
	}
	if !strings.Contains(out.String(), "FAIL corrupted: output") {
		t.Errorf("failure not printed:\n%s", out.String())
	}
}

// TestPerturbedReplayIsAFailedOp: an exploration leg whose replayed figures
// disagree with Result.Final, or whose repetition differs from the first,
// is counted as a failed op.
func TestPerturbedReplayIsAFailedOp(t *testing.T) {
	var out bytes.Buffer
	b := newBench("explore-spam", 1, 0.001, false, smokeSize, &out)
	src, err := zooSource("spam")
	if err != nil {
		t.Fatal(err)
	}
	kernel := firKernel(rand.New(rand.NewSource(1)), "DMX", 2, 3, 2)
	in := exploreInput{base: src, kernel: kernel}
	lr := runLeg(in, leg{"default", explore.DefaultWeights()}, 1, nil, nil)
	if !b.verifyLeg("clean", lr, nil, kernel, nil) {
		t.Fatalf("clean leg failed:\n%s", out.String())
	}

	final := *lr.res.Final
	final.CycleNs = math.Nextafter(final.CycleNs, math.Inf(1))
	res := *lr.res
	res.Final = &final
	perturbed := lr
	perturbed.res = &res
	b.verifyLeg("perturbed", perturbed, nil, kernel, nil)

	differs := lr
	differs.digest[0] ^= 1
	b.verifyLeg("repetition", differs, &lr, kernel, nil)

	if r := b.result(); r.Failed != 2 || r.Attempted != 3 || r.Correct {
		t.Errorf("perturbed replay and differing repetition: %+v\n%s", r, out.String())
	}
	for _, want := range []string{"FAIL perturbed: replay combine: cycle-ns", "FAIL repetition: result digest"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in:\n%s", want, out.String())
		}
	}
}
