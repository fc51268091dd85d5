package core

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/blob"
	"repro/internal/hgen"
	"repro/internal/obs"
)

// TestEvalCacheStoreWriteThrough: a Put lands in the store's one
// namespace, and a fresh cache over the same store serves it as a hit.
func TestEvalCacheStoreWriteThrough(t *testing.T) {
	st := blob.NewMem()
	a := NewEvalCache()
	a.SetStore(st)
	k := EvalKey("settings", "machine", "kernel")
	a.Put(k, &Evaluation{Machine: "m", Cycles: 42, RuntimeUs: 1.5, Hardware: &hgen.Result{}}, nil)
	if st.Len() != 1 {
		t.Fatalf("store holds %d blobs, want 1", st.Len())
	}
	if ok, err := st.Has(storeNS, blob.Key(k)); !ok || err != nil {
		t.Fatalf("blob not under namespace %s: (%v, %v)", storeNS, ok, err)
	}

	b := NewEvalCache()
	b.SetStore(st)
	ev, err, ok := b.Get(k)
	if !ok || err != nil {
		t.Fatalf("Get via store = (%v, %v, %v)", ev, err, ok)
	}
	if ev.Cycles != 42 || ev.RuntimeUs != 1.5 {
		t.Fatalf("evaluation mangled: %+v", ev)
	}
	if ev.Hardware != nil {
		t.Error("store-served evaluation carries a live hardware model")
	}
	if hits, misses := b.Stats(); hits != 1 || misses != 0 {
		t.Errorf("store-served Get counted as %d hits / %d misses", hits, misses)
	}
	if hits, misses, errs := b.StoreStats(); hits != 1 || misses != 0 || errs != 0 {
		t.Errorf("StoreStats = %d/%d/%d, want 1/0/0", hits, misses, errs)
	}
	// A second Get of the same key is a pure memory hit: no store traffic.
	b.Get(k)
	if hits, _, _ := b.StoreStats(); hits != 1 {
		t.Errorf("memory hit went to the store (store hits %d)", hits)
	}
	// A key nobody wrote is a counted store miss.
	if _, _, ok := b.Get(EvalKey("other")); ok {
		t.Fatal("hit on a key nobody wrote")
	}
	if _, misses, _ := b.StoreStats(); misses != 1 {
		t.Errorf("store misses = %d, want 1", misses)
	}
}

// Memoized deterministic failures travel through the store too.
func TestEvalCacheStoreSharesFailures(t *testing.T) {
	st := blob.NewMem()
	a := NewEvalCache()
	a.SetStore(st)
	k := EvalKey("settings", "machine", "bad kernel")
	a.Put(k, nil, fmt.Errorf("compile: no add operation"))

	b := NewEvalCache()
	b.SetStore(st)
	ev, err, ok := b.Get(k)
	if !ok || ev != nil || err == nil || err.Error() != "compile: no add operation" {
		t.Fatalf("failure via store = (%v, %v, %v)", ev, err, ok)
	}
}

// A corrupt or empty blob degrades to a counted miss: the candidate is
// recomputed, never failed on the store's account.
func TestEvalCacheStoreCorruptBlobIsMiss(t *testing.T) {
	st := blob.NewMem()
	torn, empty := EvalKey("torn"), EvalKey("empty")
	st.Put(storeNS, blob.Key(torn), []byte(`{"eval":{"Cycles":4`))
	st.Put(storeNS, blob.Key(empty), []byte(`{}`))

	c := NewEvalCache()
	c.SetStore(st)
	for _, k := range []CacheKey{torn, empty} {
		if ev, err, ok := c.Get(k); ok || ev != nil || err != nil {
			t.Errorf("corrupt blob served: (%v, %v, %v)", ev, err, ok)
		}
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 2 {
		t.Errorf("Stats = %d hits / %d misses, want 0/2", hits, misses)
	}
	if hits, misses, errs := c.StoreStats(); hits != 0 || misses != 0 || errs != 2 {
		t.Errorf("StoreStats = %d/%d/%d, want 0/0/2", hits, misses, errs)
	}
	// Recomputing overwrites the bad blob.
	c.Put(torn, &Evaluation{Cycles: 7}, nil)
	fresh := NewEvalCache()
	fresh.SetStore(st)
	if ev, _, ok := fresh.Get(torn); !ok || ev.Cycles != 7 {
		t.Errorf("rewritten blob = (%v, %v)", ev, ok)
	}
}

// TestEvalCacheConcurrentStore exercises mixed Put/Get from many
// goroutines over a shared dir store; the race detector gives the
// verdict.
func TestEvalCacheConcurrentStore(t *testing.T) {
	st, err := blob.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewEvalCache()
	c.SetStore(st)
	c.Bind(obs.NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				k := EvalKey("m", fmt.Sprint(i))
				c.Put(k, &Evaluation{Cycles: uint64(i)}, nil)
				if ev, _, ok := c.Get(k); !ok || ev.Cycles != uint64(i) {
					t.Errorf("goroutine %d: Get(%d) = (%v, %v)", g, i, ev, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPipelineFullyServedFromStore is the store's property in one process
// pair: pipeline A evaluates against an empty shared store; pipeline B,
// with a cold memory cache over the same store, re-evaluates and runs no
// stage after Parse, and the figures are identical. (The cross-process
// version lives in internal/explore.)
func TestPipelineFullyServedFromStore(t *testing.T) {
	src := toyCanonical(t)
	st := blob.NewMem()

	ca := NewEvalCache()
	ca.SetStore(st)
	a, err := (&Pipeline{Cache: ca}).EvaluateKernel(src, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}

	cb := NewEvalCache()
	cb.SetStore(st)
	reg := obs.NewRegistry()
	b, err := (&Pipeline{Cache: cb, Obs: reg}).EvaluateKernel(src, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := cb.Stats(); hits != 1 || misses != 0 {
		t.Errorf("B: %d hits / %d misses, want 1/0", hits, misses)
	}
	for name, h := range reg.Histograms() {
		if name != "stage.parse.ns" && h.Count != 0 {
			t.Errorf("B ran %s %d times despite the shared store", name, h.Count)
		}
	}

	// Figures identical; only the live hardware model (deliberately not
	// serialized) differs.
	aj := mustJSON(t, evalFigures(a))
	bj := mustJSON(t, evalFigures(b))
	if aj != bj {
		t.Errorf("figures diverge:\nA: %s\nB: %s", aj, bj)
	}
	if b.Hardware != nil {
		t.Error("store-served evaluation resurrected a live hardware model")
	}
}

// TestEvalCacheKeysEvaluatorSettings: two caches over one store, under
// evaluators that differ in a setting the figures depend on, must not
// serve each other's evaluations.
func TestEvalCacheKeysEvaluatorSettings(t *testing.T) {
	src := toyCanonical(t)
	st := blob.NewMem()

	ca := NewEvalCache()
	ca.SetStore(st)
	shared, err := (&Pipeline{Cache: ca}).EvaluateKernel(src, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}

	unshared := NewEvaluator()
	unshared.Synthesis.Sharing = hgen.ShareOff
	cb := NewEvalCache()
	cb.SetStore(st)
	got, err := (&Pipeline{Evaluator: unshared, Cache: cb}).EvaluateKernel(src, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	if got.AreaCells == shared.AreaCells {
		t.Errorf("ShareOff evaluation reports the sharing evaluation's area %.0f cells", got.AreaCells)
	}
	if hits, _ := cb.Stats(); hits != 0 {
		t.Errorf("ShareOff cache served %d hits from the other configuration", hits)
	}
}

// evalFigures strips the live model so serialized and in-process
// evaluations compare equal.
func evalFigures(e *Evaluation) Evaluation {
	cp := *e
	cp.Hardware = nil
	return cp
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
