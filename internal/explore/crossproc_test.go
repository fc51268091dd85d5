package explore_test

// Two *processes* sharing a store directory never evaluate the same
// architecture twice. Process A (a re-exec of this test binary) explores
// SPAM2 and populates the store; process B re-runs the identical
// exploration and recomputes nothing — the evaluation cache reports zero
// misses, no pipeline stage after Parse runs, and the Result is
// byte-identical.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/machines"
	"repro/internal/obs"
)

// crossProcOut is what the helper process reports back, bracketed by
// crossProcMarker on its own stdout line.
type crossProcOut struct {
	Report      string            `json:"report"`
	FinalSource string            `json:"final_source"`
	Hits        uint64            `json:"hits"`
	Misses      uint64            `json:"misses"`
	StoreHits   uint64            `json:"store_hits"`
	StageRuns   map[string]uint64 `json:"stage_runs"` // stage -> stage.<name>.ns count
}

const crossProcMarker = "CROSSPROC_JSON:"

func runCrossProcExplore(t *testing.T, storeDir string) crossProcOut {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "TestCrossProcessExploreHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "EXPLORE_CROSSPROC_STORE="+storeDir)
	raw, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("helper process failed: %v\n%s", err, raw)
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(crossProcMarker)); ok {
			var out crossProcOut
			if err := json.Unmarshal(rest, &out); err != nil {
				t.Fatalf("bad helper payload: %v\n%s", err, rest)
			}
			return out
		}
	}
	t.Fatalf("helper produced no %s line:\n%s", crossProcMarker, raw)
	return crossProcOut{}
}

func TestCrossProcessStoreSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns two exploration processes")
	}
	storeDir := t.TempDir()

	a := runCrossProcExplore(t, storeDir) // process A: populates
	b := runCrossProcExplore(t, storeDir) // process B: must only read

	if a.Report != b.Report || a.FinalSource != b.FinalSource {
		t.Errorf("results diverge across processes:\nA report:\n%s\nB report:\n%s", a.Report, b.Report)
	}
	if b.Misses != 0 {
		t.Errorf("process B missed %d evaluations despite the shared store", b.Misses)
	}
	if b.Hits == 0 {
		t.Error("process B's evaluation cache served no hits; store sharing did not happen")
	}
	for _, s := range []string{"compile", "assemble", "simulate", "synthesize"} {
		if a.StageRuns[s] == 0 {
			t.Errorf("process A never ran stage %s", s)
		}
		if n := b.StageRuns[s]; n != 0 {
			t.Errorf("process B ran stage %s %d times despite the shared store", s, n)
		}
	}
	if b.StoreHits == 0 {
		t.Error("process B reports zero store-tier hits")
	}
}

// TestCrossProcessExploreHelper is one exploration process; it only runs
// when re-executed with the store directory in the environment.
func TestCrossProcessExploreHelper(t *testing.T) {
	storeDir := os.Getenv("EXPLORE_CROSSPROC_STORE")
	if storeDir == "" {
		t.Skip("helper; run via TestCrossProcessStoreSharing")
	}
	cache := core.NewEvalCache()
	if err := cache.UseDir(storeDir); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res, err := explore.New(machines.SPAM2Source, kernel,
		explore.WithCache(cache),
		explore.WithMaxIters(2),
		explore.WithWorkers(4),
		explore.WithObs(reg),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	out := crossProcOut{
		Report:      res.Report(),
		FinalSource: res.FinalSource,
		StageRuns:   map[string]uint64{},
	}
	out.Hits, out.Misses = cache.Stats()
	out.StoreHits, _, _ = cache.StoreStats()
	hs := reg.Histograms()
	for _, s := range []string{"compile", "assemble", "simulate", "synthesize"} {
		out.StageRuns[s] = hs["stage."+s+".ns"].Count
	}
	payload, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("%s%s\n", crossProcMarker, payload)
}
