package explore_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/machines"
	"repro/internal/obs"
)

// runConfig runs one exploration of SPAM with the given concurrency/cache
// knobs over a small kernel that leaves removable operations on the table.
func runConfig(t *testing.T, workers int, noCache bool) (*explore.Result, []string) {
	t.Helper()
	var lines []string
	opts := []explore.Option{
		explore.WithWeights(explore.DefaultWeights()),
		explore.WithMaxIters(3),
		explore.WithWorkers(workers),
		explore.WithLog(func(ev explore.Event) { lines = append(lines, ev.Line) }),
	}
	if noCache {
		opts = append(opts, explore.WithoutCache())
	}
	res, err := explore.New(machines.SPAMSource, "var i, s;\ns = 0;\nfor i = 0 to 7 { s = s + i; }\n", opts...).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, lines
}

// sameResult asserts two exploration runs are bit-identical where the
// engine promises determinism: final source, scores, and the step set.
func sameResult(t *testing.T, name string, a, b *explore.Result) {
	t.Helper()
	if a.FinalSource != b.FinalSource {
		t.Errorf("%s: FinalSource differs", name)
	}
	w := explore.DefaultWeights()
	score := func(r *explore.Result) (float64, float64) {
		return r.Initial.Score(w.Runtime, w.Area, w.Power), r.Final.Score(w.Runtime, w.Area, w.Power)
	}
	ai, af := score(a)
	bi, bf := score(b)
	if ai != bi || af != bf {
		t.Errorf("%s: scores differ: (%v, %v) vs (%v, %v)", name, ai, af, bi, bf)
	}
	if len(a.Steps) != len(b.Steps) {
		t.Fatalf("%s: step counts differ: %d vs %d", name, len(a.Steps), len(b.Steps))
	}
	for i := range a.Steps {
		sa, sb := a.Steps[i], b.Steps[i]
		if sa.Iter != sb.Iter || sa.Action != sb.Action || sa.Score != sb.Score || sa.Accepted != sb.Accepted {
			t.Errorf("%s: step %d differs: %+v vs %+v", name, i, sa, sb)
		}
		if sa.Eval.Cycles != sb.Eval.Cycles || sa.Eval.AreaCells != sb.Eval.AreaCells || sa.Eval.PowerMW != sb.Eval.PowerMW {
			t.Errorf("%s: step %d evaluation differs", name, i)
		}
	}
}

// TestExploreParallelDeterministic: concurrent neighbour evaluation and the
// memoizing cache must not change the exploration outcome — parallel runs
// are bit-identical to Workers=1, cached runs to uncached ones.
func TestExploreParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration loop is slow")
	}
	seq, _ := runConfig(t, 1, true)
	for _, tc := range []struct {
		name    string
		workers int
		noCache bool
	}{
		{"workers=1+cache", 1, false},
		{"workers=4", 4, true},
		{"workers=4+cache", 4, false},
		{"workers=32", 32, false},
	} {
		res, _ := runConfig(t, tc.workers, tc.noCache)
		sameResult(t, tc.name, seq, res)
	}
}

// TestExploreSharedCacheAcrossRuns: weights fold an evaluation into the
// objective *after* the pipeline, so a weight sweep over the same base and
// kernel can share one cache — the second run's candidates should be
// overwhelmingly hits.
func TestExploreSharedCacheAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration loop is slow")
	}
	cache := core.NewEvalCache()
	run := func(w explore.Weights) {
		_, err := explore.New(machines.SPAMSource, "var i, s;\ns = 0;\nfor i = 0 to 7 { s = s + i; }\n",
			explore.WithWeights(w),
			explore.WithMaxIters(2),
			explore.WithWorkers(2),
			explore.WithCache(cache),
		).Run()
		if err != nil {
			t.Fatal(err)
		}
	}
	run(explore.Weights{Runtime: 1, Area: 0.5, Power: 0.2})
	h1, m1 := cache.Stats()
	run(explore.Weights{Runtime: 1, Area: 5, Power: 0.2})
	h2, m2 := cache.Stats()
	newHits, newMisses := h2-h1, m2-m1
	if newHits <= newMisses {
		t.Errorf("weight-sweep run: %d hits / %d misses, want mostly hits", newHits, newMisses)
	}
}

// TestExploreInstrumentedExactCounters (runs under -race in CI): parallel
// exploration over a shared obs.Registry must lose no increments — the
// concurrently-bumped counters must agree exactly with the event stream,
// which Run emits race-free from its own goroutine — and instrumentation
// must not change the outcome: results stay bit-identical to an
// uninstrumented run.
func TestExploreInstrumentedExactCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration loop is slow")
	}
	plain, _ := runConfig(t, 8, false)

	reg := obs.NewRegistry()
	var events []explore.Event
	res, err := explore.New(machines.SPAMSource, "var i, s;\ns = 0;\nfor i = 0 to 7 { s = s + i; }\n",
		explore.WithWeights(explore.DefaultWeights()),
		explore.WithMaxIters(3),
		explore.WithWorkers(8),
		explore.WithObs(reg),
		explore.WithLog(func(ev explore.Event) { events = append(events, ev) }),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "instrumented", plain, res)

	byKind := map[string]uint64{}
	for _, ev := range events {
		byKind[ev.Kind]++
	}
	c := reg.Counters()
	// Every evaluated candidate (the base plus each neighbour) increments
	// explore.candidates from a worker goroutine.
	wantCandidates := 1 + byKind["candidate"] + byKind["infeasible"]
	if c["explore.candidates"] != wantCandidates {
		t.Errorf("explore.candidates = %d, want %d", c["explore.candidates"], wantCandidates)
	}
	var accepted, rejected uint64
	for _, s := range res.Steps {
		if s.Accepted {
			accepted++
		} else {
			rejected++
		}
	}
	if c["explore.moves.accepted"] != accepted {
		t.Errorf("explore.moves.accepted = %d, want %d", c["explore.moves.accepted"], accepted)
	}
	if c["explore.moves.rejected"] != rejected {
		t.Errorf("explore.moves.rejected = %d, want %d", c["explore.moves.rejected"], rejected)
	}
	if c["explore.moves.infeasible"] != byKind["infeasible"] {
		t.Errorf("explore.moves.infeasible = %d, want %d", c["explore.moves.infeasible"], byKind["infeasible"])
	}

	// The pipeline, evaluation cache and simulator report through the
	// same registry.
	if reg.Histograms()["stage.simulate.ns"].Count == 0 {
		t.Error("no simulate-stage latency observations")
	}
	if c["xsim.instructions"] == 0 {
		t.Error("no simulator perf counters published")
	}
	if c["cache.combine.misses"] == 0 {
		t.Error("evaluation-cache counters not bound into the registry")
	}

	// Spans: one per iteration (the cache event count is the iteration
	// count) and one per evaluated candidate.
	spanCount := map[string]uint64{}
	for _, s := range reg.Spans() {
		spanCount[s.Name]++
	}
	if spanCount["candidate"] != wantCandidates {
		t.Errorf("candidate spans = %d, want %d", spanCount["candidate"], wantCandidates)
	}
	if spanCount["iteration"] != byKind["cache"] {
		t.Errorf("iteration spans = %d, want %d", spanCount["iteration"], byKind["cache"])
	}
	// Move generation: one neighbours span under each iteration span and
	// one explore.neighbours.ns observation per iteration. Every SPAM edit
	// is valid, so no explore.moves.invalid counter appears.
	iterIDs := map[uint64]bool{}
	for _, s := range reg.Spans() {
		if s.Name == "iteration" {
			iterIDs[s.ID] = true
		}
	}
	for _, s := range reg.Spans() {
		if s.Name == "neighbours" && !iterIDs[s.Parent] {
			t.Errorf("neighbours span %d is not a child of an iteration span", s.ID)
		}
	}
	if spanCount["neighbours"] != byKind["cache"] {
		t.Errorf("neighbours spans = %d, want %d", spanCount["neighbours"], byKind["cache"])
	}
	if n := reg.Histograms()["explore.neighbours.ns"].Count; n != byKind["cache"] {
		t.Errorf("explore.neighbours.ns observations = %d, want %d", n, byKind["cache"])
	}
	if n, ok := c["explore.moves.invalid"]; ok {
		t.Errorf("explore.moves.invalid = %d on SPAM, want no counter", n)
	}
}

// TestExploreParsesOncePerIteration: moves are derived from one template
// per iteration and enter the pipeline already analysed, so a hill climb
// parses the base once and each current candidate at most twice, however
// many candidates it scores. stage.parse.ns counts every parse.
func TestExploreParsesOncePerIteration(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration loop is slow")
	}
	reg := obs.NewRegistry()
	var iters, cands uint64
	_, err := explore.New(machines.SPAMSource, "var i, s;\ns = 0;\nfor i = 0 to 7 { s = s + i; }\n",
		explore.WithMaxIters(2),
		explore.WithWorkers(2),
		explore.WithObs(reg),
		explore.WithLog(func(ev explore.Event) {
			switch ev.Kind {
			case "cache":
				iters++
			case "candidate", "infeasible":
				cands++
			}
		}),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if cands < 20 {
		t.Fatalf("only %d candidates scored; the bound needs at least 20", cands)
	}
	if parses := reg.Histograms()["stage.parse.ns"].Count; parses > 2*iters+1 {
		t.Errorf("%d parses for %d candidates over %d iterations, want at most %d", parses, cands, iters, 2*iters+1)
	}
}

// TestExploreCacheHitsAcrossIterations: the hill climb revisits equivalent
// architectures across iterations (e.g. the inverse of an accepted retiming
// move regenerates the previous candidate), so a multi-iteration run must
// report cache hits in the exploration log.
func TestExploreCacheHitsAcrossIterations(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration loop is slow")
	}
	_, lines := runConfig(t, 4, false)
	var cacheLines []string
	for _, l := range lines {
		if strings.Contains(l, "cache") {
			cacheLines = append(cacheLines, l)
		}
	}
	if len(cacheLines) == 0 {
		t.Fatal("no cache statistics in the exploration log")
	}
	last := cacheLines[len(cacheLines)-1]
	if !strings.Contains(last, " misses") {
		t.Errorf("cache line misses the memo counters: %q", last)
	}
	if strings.Contains(last, "cache 0 hits") {
		t.Errorf("expected cross-iteration whole-evaluation hits, got %q", last)
	}
}
