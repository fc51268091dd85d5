package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/hgen"
	"repro/internal/obs"
)

// dirCache returns a fresh memory cache backed by the store directory root.
func dirCache(t *testing.T, root string) *EvalCache {
	t.Helper()
	c := NewEvalCache()
	if err := c.UseDir(root); err != nil {
		t.Fatal(err)
	}
	return c
}

// storeFiles counts the entry files under a store directory.
func storeFiles(t *testing.T, root string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(root, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// writeEntry hand-writes one store entry at <root>/eval.v3/<kk>/<hex>.
func writeEntry(t *testing.T, root string, k CacheKey, data string) {
	t.Helper()
	p := entryPath(filepath.Join(root, "eval.v3"), k)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEvalCacheStoreWriteThrough: a Put lands in the store directory's
// one namespace, and a fresh cache over the same directory serves it as a
// hit.
func TestEvalCacheStoreWriteThrough(t *testing.T) {
	root := t.TempDir()
	a := dirCache(t, root)
	k := EvalKey("settings", "machine", "kernel")
	a.Put(k, &Evaluation{Machine: "m", Cycles: 42, RuntimeUs: 1.5, Hardware: &hgen.Result{}}, nil)
	if n := storeFiles(t, root); n != 1 {
		t.Fatalf("store holds %d entries, want 1", n)
	}
	if _, err := os.Stat(entryPath(filepath.Join(root, storeNS), k)); err != nil {
		t.Fatalf("entry not under namespace %s: %v", storeNS, err)
	}

	b := dirCache(t, root)
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

// TestEvalCacheStoreServesPinnedEntry pins the on-disk format: an entry
// written by hand at <root>/eval.v3/<kk>/<hex>, in the JSON form earlier
// releases wrote, is served as a hit. Changing the layout, the key
// composition or the entry encoding breaks existing store directories and
// must bump persistVersion instead.
func TestEvalCacheStoreServesPinnedEntry(t *testing.T) {
	root := t.TempDir()
	// The entry for EvalKey("settings", "machine", "kernel").
	p := filepath.Join(root, "eval.v3", "7b", "7b5eb09a805449de6d6056ff7c1754c3eb60265ed8a3fbfe1fd0925512a73497")
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	entry := `{"eval":{"Machine":"spam","Workload":"sum","Cycles":1091,"Instructions":1000,` +
		`"Stats":{"Cycles":1091,"Instructions":1000,"DataStalls":91,"StructStalls":0,"Reads":5,"Writes":6,` +
		`"OpCounts":{"ALU.add":10},"FieldIssue":[900,100]},` +
		`"CycleNs":21.5,"AreaCells":123456,"Hardware":null,"RuntimeUs":23.4565,"PowerMW":12.5,"EnergyUJ":0.29}}`
	if err := os.WriteFile(p, []byte(entry), 0o644); err != nil {
		t.Fatal(err)
	}

	c := dirCache(t, root)
	ev, err, ok := c.Get(EvalKey("settings", "machine", "kernel"))
	if !ok || err != nil {
		t.Fatalf("pinned entry not served: (%v, %v, %v)", ev, err, ok)
	}
	if ev.Machine != "spam" || ev.Cycles != 1091 || ev.CycleNs != 21.5 || ev.Stats.DataStalls != 91 ||
		ev.Stats.OpCounts["ALU.add"] != 10 || len(ev.Stats.FieldIssue) != 2 || ev.EnergyUJ != 0.29 {
		t.Errorf("pinned entry decoded as %+v (stats %+v)", ev, ev.Stats)
	}
	if hits, misses, errs := c.StoreStats(); hits != 1 || misses != 0 || errs != 0 {
		t.Errorf("StoreStats = %d/%d/%d, want 1/0/0", hits, misses, errs)
	}
}

// Memoized deterministic failures travel through the store too.
func TestEvalCacheStoreSharesFailures(t *testing.T) {
	root := t.TempDir()
	k := EvalKey("settings", "machine", "bad kernel")
	dirCache(t, root).Put(k, nil, fmt.Errorf("compile: no add operation"))

	ev, err, ok := dirCache(t, root).Get(k)
	if !ok || ev != nil || err == nil || err.Error() != "compile: no add operation" {
		t.Fatalf("failure via store = (%v, %v, %v)", ev, err, ok)
	}
}

// A corrupt or empty entry degrades to a counted miss: the candidate is
// recomputed, never failed on the store's account.
func TestEvalCacheStoreCorruptBlobIsMiss(t *testing.T) {
	root := t.TempDir()
	torn, empty := EvalKey("torn"), EvalKey("empty")
	writeEntry(t, root, torn, `{"eval":{"Cycles":4`)
	writeEntry(t, root, empty, `{}`)

	c := dirCache(t, root)
	for _, k := range []CacheKey{torn, empty} {
		if ev, err, ok := c.Get(k); ok || ev != nil || err != nil {
			t.Errorf("corrupt entry served: (%v, %v, %v)", ev, err, ok)
		}
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 2 {
		t.Errorf("Stats = %d hits / %d misses, want 0/2", hits, misses)
	}
	if hits, misses, errs := c.StoreStats(); hits != 0 || misses != 0 || errs != 2 {
		t.Errorf("StoreStats = %d/%d/%d, want 0/0/2", hits, misses, errs)
	}
	// Recomputing overwrites the bad entry.
	c.Put(torn, &Evaluation{Cycles: 7}, nil)
	if ev, _, ok := dirCache(t, root).Get(torn); !ok || ev.Cycles != 7 {
		t.Errorf("rewritten entry = (%v, %v)", ev, ok)
	}
}

// TestEvalCacheUseDirCreatesRoot: UseDir creates a missing store
// directory, and a root that cannot be a directory is an error.
func TestEvalCacheUseDirCreatesRoot(t *testing.T) {
	root := filepath.Join(t.TempDir(), "deep", "store")
	dirCache(t, root)
	if fi, err := os.Stat(root); err != nil || !fi.IsDir() {
		t.Fatalf("store root not created: %v", err)
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", filepath.Join(file, "store")} {
		if err := NewEvalCache().UseDir(bad); err == nil {
			t.Errorf("UseDir(%q) accepted", bad)
		}
	}
}

// TestEvalCacheConcurrentStore exercises mixed Put/Get from many
// goroutines over one cache backed by a store directory; the race
// detector gives the verdict.
func TestEvalCacheConcurrentStore(t *testing.T) {
	c := dirCache(t, t.TempDir())
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

// entryKinds are the two things a store entry holds: an evaluation or a
// memoized deterministic failure. put writes entry i under k; want reports
// whether a Get returned entry i whole.
var entryKinds = []struct {
	name string
	put  func(c *EvalCache, k CacheKey, i int)
	want func(ev *Evaluation, err error, i int) bool
}{
	{
		"evaluation",
		func(c *EvalCache, k CacheKey, i int) {
			c.Put(k, &Evaluation{Machine: fmt.Sprintf("m%d", i), Cycles: uint64(i)}, nil)
		},
		func(ev *Evaluation, err error, i int) bool {
			return err == nil && ev != nil && ev.Cycles == uint64(i) && ev.Machine == fmt.Sprintf("m%d", i)
		},
	},
	{
		"failure",
		func(c *EvalCache, k CacheKey, i int) { c.Put(k, nil, fmt.Errorf("compile: item %d", i)) },
		func(ev *Evaluation, err error, i int) bool {
			return ev == nil && err != nil && err.Error() == fmt.Sprintf("compile: item %d", i)
		},
	},
}

// TestEvalCacheDirRoundTrip: through a store directory, a key is a counted
// store miss until it is written, a fresh cache then serves it whole, and
// writing the same entry again is harmless.
func TestEvalCacheDirRoundTrip(t *testing.T) {
	for _, kind := range entryKinds {
		t.Run(kind.name, func(t *testing.T) {
			root := t.TempDir()
			k := EvalKey("settings", "machine A", "kernel 1")
			a := dirCache(t, root)
			if ev, err, ok := a.Get(k); ok || ev != nil || err != nil {
				t.Fatalf("Get on empty store = (%v, %v, %v)", ev, err, ok)
			}
			if hits, misses, errs := a.StoreStats(); hits != 0 || misses != 1 || errs != 0 {
				t.Fatalf("StoreStats on empty store = %d/%d/%d, want 0/1/0", hits, misses, errs)
			}
			kind.put(a, k, 3)
			if ev, err, ok := dirCache(t, root).Get(k); !ok || !kind.want(ev, err, 3) {
				t.Fatalf("Get after Put = (%v, %v, %v)", ev, err, ok)
			}
			// Idempotent re-Put, from another cache over the same directory.
			b := dirCache(t, root)
			kind.put(b, k, 3)
			if _, _, errs := b.StoreStats(); errs != 0 {
				t.Fatalf("re-Put: %d store errors", errs)
			}
			if n := storeFiles(t, root); n != 1 {
				t.Fatalf("store holds %d files after re-Put, want 1", n)
			}
			if ev, err, ok := dirCache(t, root).Get(k); !ok || !kind.want(ev, err, 3) {
				t.Fatalf("Get after re-Put = (%v, %v, %v)", ev, err, ok)
			}
		})
	}
}

// TestEvalCacheDirConcurrent: writers with separate caches over one
// directory race on the same keys, and every read from the files sees a
// whole entry.
func TestEvalCacheDirConcurrent(t *testing.T) {
	for _, kind := range entryKinds {
		t.Run(kind.name, func(t *testing.T) {
			root := t.TempDir()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					// r reads each key once, so every read reaches the files.
					w, r := NewEvalCache(), NewEvalCache()
					if err := errors.Join(w.UseDir(root), r.UseDir(root)); err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < 20; i++ {
						// Writers of the same key carry the same entry — the
						// store contract — while distinct keys mix.
						k := EvalKey("item", fmt.Sprint(i))
						kind.put(w, k, i)
						if ev, err, ok := r.Get(k); !ok || !kind.want(ev, err, i) {
							t.Errorf("goroutine %d: Get(%d) = (%v, %v, %v)", g, i, ev, err, ok)
							return
						}
					}
					if _, _, errs := w.StoreStats(); errs != 0 {
						t.Errorf("goroutine %d: %d store errors", g, errs)
					}
				}(g)
			}
			wg.Wait()
			if n := storeFiles(t, root); n != 20 {
				t.Errorf("store holds %d files, want 20 (leftover temporaries?)", n)
			}
		})
	}
}

// TestEvalCacheDirTwoProcesses proves the cross-process contract: a
// writer process (a re-exec of this test binary) populates a store
// directory, and this process's cold cache serves every entry.
func TestEvalCacheDirTwoProcesses(t *testing.T) {
	root := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestEvalCacheDirWriterProcess$", "-test.v")
	cmd.Env = append(os.Environ(), "CORE_TEST_WRITER_ROOT="+root)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("writer process failed: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("PASS")) {
		t.Fatalf("writer process did not pass:\n%s", out)
	}
	c := dirCache(t, root)
	for i := 0; i < 5; i++ {
		ev, err, ok := c.Get(EvalKey("entry", fmt.Sprint(i)))
		if !ok || err != nil || ev.Cycles != uint64(i) {
			t.Fatalf("reader miss on entry %d: (%v, %v, %v)", i, ev, err, ok)
		}
	}
	if hits, misses, errs := c.StoreStats(); hits != 5 || misses != 0 || errs != 0 {
		t.Errorf("StoreStats = %d/%d/%d, want 5/0/0", hits, misses, errs)
	}
}

// TestEvalCacheDirWriterProcess is the writer half of
// TestEvalCacheDirTwoProcesses; it only runs when re-executed with the
// environment set.
func TestEvalCacheDirWriterProcess(t *testing.T) {
	root := os.Getenv("CORE_TEST_WRITER_ROOT")
	if root == "" {
		t.Skip("writer-process helper; run via TestEvalCacheDirTwoProcesses")
	}
	c := dirCache(t, root)
	for i := 0; i < 5; i++ {
		c.Put(EvalKey("entry", fmt.Sprint(i)), &Evaluation{Cycles: uint64(i)}, nil)
	}
	if _, _, errs := c.StoreStats(); errs != 0 {
		t.Fatalf("%d store write errors", errs)
	}
}

// TestPipelineFullyServedFromStore is the store's property in one process
// pair: pipeline A evaluates against an empty store directory; pipeline B,
// with a cold memory cache over the same directory, re-evaluates and runs
// no stage after Parse, and the figures are identical. (The cross-process
// version lives in internal/explore.)
func TestPipelineFullyServedFromStore(t *testing.T) {
	src := toyCanonical(t)
	root := t.TempDir()

	a, err := (&Pipeline{Cache: dirCache(t, root)}).EvaluateKernel(src, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}

	cb := dirCache(t, root)
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
	root := t.TempDir()

	shared, err := (&Pipeline{Cache: dirCache(t, root)}).EvaluateKernel(src, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}

	unshared := NewEvaluator()
	unshared.Synthesis.Sharing = hgen.ShareOff
	cb := dirCache(t, root)
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
