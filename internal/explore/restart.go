package explore

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/randmachine"
)

// Restarts wraps an inner strategy with seeded random restarts: restart 0
// runs the inner strategy from the unperturbed base, restarts 1..N from
// bases perturbed by random — but always semantically valid — mutations
// drawn from one rand source seeded with Seed, so a run is byte-identical
// for a fixed (base, kernel, N, Seed) no matter how many workers evaluate
// candidates. The combined Result carries every restart's best
// (Result.Restarts, the global winner flagged Winner) and the winner's
// Final/FinalSource (score ties go to the earlier restart); when the
// inner strategy is Pareto, the per-restart frontiers are additionally
// merged into one combined non-dominated curve (Result.Frontier).
type Restarts struct {
	// N is the number of perturbed restarts beyond the base run.
	N int
	// Seed seeds the perturbation stream.
	Seed int64
	// Inner is the strategy each restart runs; nil means HillClimb{}.
	Inner Strategy
}

// PerturbMoves is how many random mutations each restart applies to the
// base description.
const PerturbMoves = 2

// Name implements Strategy.
func (r Restarts) Name() string {
	inner := r.Inner
	if inner == nil {
		inner = HillClimb{}
	}
	return fmt.Sprintf("restarts-%d(%s)", r.N, inner.Name())
}

func (r Restarts) run(e *engine) (*Result, error) {
	inner := r.Inner
	if inner == nil {
		inner = HillClimb{}
	}
	rnd := rand.New(rand.NewSource(r.Seed))
	combined := &Result{}
	base := e.base
	// bestIdx indexes combined.Restarts. It must be an index, not a
	// pointer into the slice: append reallocates the backing array as it
	// grows, and a *RestartResult taken before a reallocation aliases the
	// stale copy — reads still happen to work (the values were copied),
	// but any write through it (the Winner mark below) silently lands in
	// the dead array (TestRestartsWinnerSurvivesReallocation).
	bestIdx := -1
	// frontiers collects per-restart Pareto frontiers for the merged
	// combined curve (empty unless the inner strategy is Pareto).
	var frontiers []FrontierPoint
	// Restarts run sequentially: each inner run owns the whole worker
	// pool, and the shared evaluation cache carries evaluations from one
	// restart to the next.
	for i := 0; i <= r.N; i++ {
		src, actions := base, []string(nil)
		if i > 0 {
			var err error
			src, actions, err = randmachine.Perturb(rnd, base, PerturbMoves)
			if err != nil {
				return nil, fmt.Errorf("explore: restart %d perturbation: %w", i, err)
			}
		}
		e.restart = i
		lane := 1 + e.workers + i
		e.obs().SetLaneName(lane, fmt.Sprintf("restart %d", i))
		sp := e.obs().StartSpanLane("restart", lane)
		sp.SetArg("restart", strconv.Itoa(i))
		sp.SetArg("strategy", inner.Name())
		label := "base"
		if i > 0 {
			label = strings.Join(actions, ", ")
			sp.SetArg("perturbation", label)
		}
		e.emit(Event{Kind: "restart", Iter: 0, Action: label,
			Line: fmt.Sprintf("restart %d: %s from %s", i, inner.Name(), label)})
		e.base = src
		res, err := inner.run(e)
		e.base = base
		sp.End()
		if err != nil {
			if i == 0 {
				// The unperturbed base must evaluate; fail like the
				// inner strategy alone would.
				return nil, err
			}
			// A perturbed base can be infeasible for this kernel (e.g. a
			// halved memory the data no longer fits); record and move on.
			e.obs().Counter("explore.restarts.infeasible").Inc()
			e.emit(Event{Kind: "infeasible", Iter: 0, Action: label, Err: err,
				Line: fmt.Sprintf("restart %d: infeasible: %v", i, err)})
			combined.Restarts = append(combined.Restarts, RestartResult{Index: i, Perturbation: label, Err: err})
			continue
		}
		score := e.score(res.Final)
		rr := RestartResult{
			Index:        i,
			Perturbation: label,
			Score:        score,
			Eval:         res.Final,
			Source:       res.FinalSource,
		}
		combined.Restarts = append(combined.Restarts, rr)
		combined.Steps = append(combined.Steps, res.Steps...)
		frontiers = append(frontiers, res.Frontier...)
		if i == 0 {
			combined.Initial = res.Initial
		}
		if bestIdx < 0 || score < combined.Restarts[bestIdx].Score {
			bestIdx = len(combined.Restarts) - 1
		}
		e.emit(Event{Kind: "candidate", Iter: 0, Action: "restart " + strconv.Itoa(i) + " best",
			Score: score, Scored: true, Eval: res.Final,
			Line: fmt.Sprintf("restart %d: best score %.2f (%s)", i, score, oneLine(res.Final))})
	}
	e.restart = 0
	if bestIdx < 0 {
		// Unreachable: restart 0 either succeeded or returned above.
		return nil, fmt.Errorf("explore: no feasible restart")
	}
	best := combined.Restarts[bestIdx]
	combined.Restarts[bestIdx].Winner = true
	combined.Final = best.Eval
	combined.FinalSource = best.Source
	if len(frontiers) > 0 {
		combined.Frontier = mergeFrontiers(frontiers)
	}
	e.emit(Event{Kind: "stop", Iter: 0, Score: best.Score, Scored: true,
		Line: fmt.Sprintf("restarts done: global best %.2f from restart %d", best.Score, best.Index)})
	return combined, nil
}

// RestartResult is one restart's outcome inside a Restarts run.
type RestartResult struct {
	// Index is the restart number (0 = the unperturbed base run).
	Index int
	// Perturbation describes the mutations applied to the base ("base"
	// for restart 0).
	Perturbation string
	// Score is the restart's best objective value.
	Score float64
	// Eval is the restart's best evaluation (nil when Err is set).
	Eval *core.Evaluation
	// Source is the restart's best candidate as ISDL text.
	Source string
	// Winner marks the restart whose best became the run's global
	// Final/FinalSource (exactly one on a successful run; score ties go
	// to the earlier restart).
	Winner bool
	// Err is set when the perturbed base was infeasible for the kernel.
	Err error
}
