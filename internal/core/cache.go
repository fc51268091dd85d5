package core

// Evaluation memoization. The paper's Figure 1 loop evaluates each
// candidate as a whole: one ISDL description and one workload produce one
// (runtime, area, power) figure, and every tool generated from the
// description is a pure function of it. The EvalCache therefore memoizes
// whole evaluations, keyed by a cryptographic hash of the canonical ISDL
// text (isdl.Format output, so formatting differences never split
// equivalent architectures), the kernel, and the evaluator settings the
// figures depend on. With UseDir, a store directory backs the memo:
// evaluations are written through and consulted on a memory miss, so
// processes sharing a store directory never evaluate the same candidate
// twice.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/atomicfile"
	"repro/internal/obs"
)

// Stage enumerates the evaluation pipeline's stages (docs/PIPELINE.md).
// Stage names label spans and the stage.<name>.ns latency histograms.
type Stage uint8

const (
	// StageParse is ISDL parsing + canonicalization.
	StageParse Stage = iota
	// StageCompile is the retargetable compiler: kernel → assembly text.
	StageCompile
	// StageAssemble is the assembler: assembly text → *asm.Program.
	StageAssemble
	// StageSimulate is the instruction-level simulator: program → cycle
	// count and *xsim.Stats.
	StageSimulate
	// StageSynthesize is the hardware model: description → *hgen.Result.
	StageSynthesize
	// StageCombine folds simulation and synthesis into the final
	// *Evaluation.
	StageCombine
	// StageCodegen is the aot simulator generator (internal/gensim):
	// description → generated and compiled specialized simulator binary.
	// Only run when the evaluator selects the aot backend; gensim's own
	// build cache keeps the binaries.
	StageCodegen
	// NumStages is the stage count (for iteration).
	NumStages
)

var stageNames = [NumStages]string{"parse", "compile", "assemble", "simulate", "synthesize", "combine", "codegen"}

// String returns the stage's short name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// CacheKey identifies one memoized evaluation. Build it with EvalKey.
type CacheKey [sha256.Size]byte

// EvalKey hashes its parts — the pipeline passes the evaluator settings,
// the canonical ISDL text and the kernel — into a memo key. Every part is
// length-prefixed, so no two distinct part sequences collide by
// concatenation.
func EvalKey(parts ...string) CacheKey {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		for i, l := 0, len(p); i < 8; i++ {
			n[i] = byte(l >> (8 * i))
		}
		h.Write(n[:])
		h.Write([]byte(p))
	}
	var k CacheKey
	h.Sum(k[:0])
	return k
}

// persistVersion names the store's subdirectory, so a store populated by
// an older toolchain is simply invisible to a newer one instead of
// misread. Bump it whenever the entry format or the key composition
// changes. Version 3: whole evaluations, keyed by the evaluator settings
// as well.
const persistVersion = 3

// storeNS is the memo's subdirectory of a store directory.
var storeNS = fmt.Sprintf("eval.v%d", persistVersion)

// memoEntry is one completed evaluation: the figures or the deterministic
// error the pipeline produced (an infeasible candidate stays infeasible,
// so failures are worth memoizing too).
type memoEntry struct {
	ev  *Evaluation
	err error
}

// storedEntry is a memo entry's file body: exactly one of Err and Eval is
// set. The live hardware model does not travel.
type storedEntry struct {
	Err  string      `json:"err,omitempty"`
	Eval *Evaluation `json:"eval,omitempty"`
}

// EvalCache is a thread-safe memo of whole evaluations. Entries never
// expire: a key fully determines its deterministic result. Cached
// evaluations are shared across callers (and goroutines) and must be
// treated as immutable.
//
// Hit and miss counts live in obs.Counter instruments: standalone ones by
// default, or — after Bind — counters owned by an obs.Registry, so memo
// traffic appears in exported metrics as cache.combine.hits/.misses and
// the store's as cache.store.hits/.misses/.errors.
type EvalCache struct {
	mu     sync.Mutex
	table  map[CacheKey]memoEntry
	hits   *obs.Counter
	misses *obs.Counter
	bound  *obs.Registry // registry the counters live in, nil if standalone
	dir    string        // <store root>/<storeNS>, "" for memory-only
	// Store traffic: lookups it served, lookups it could not answer, and
	// I/O or decode errors that degraded to recomputation.
	storeHits, storeMisses, storeErrs *obs.Counter
}

// NewEvalCache returns an empty memory-only cache.
func NewEvalCache() *EvalCache {
	return &EvalCache{
		table:       map[CacheKey]memoEntry{},
		hits:        obs.NewCounter(),
		misses:      obs.NewCounter(),
		storeHits:   obs.NewCounter(),
		storeMisses: obs.NewCounter(),
		storeErrs:   obs.NewCounter(),
	}
}

// Bind re-homes the cache's counters into a registry. Counts accumulated
// so far carry over, and all later traffic lands in the registry's
// counters. Binding the same registry again is a no-op (so repeated runs
// over a shared cache never double-count); binding a different registry
// migrates the current counts there.
func (c *EvalCache) Bind(r *obs.Registry) {
	if r == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bound == r {
		return
	}
	c.bound = r
	for _, ct := range []struct {
		name string
		c    **obs.Counter
	}{
		{"cache.combine.hits", &c.hits},
		{"cache.combine.misses", &c.misses},
		{"cache.store.hits", &c.storeHits},
		{"cache.store.misses", &c.storeMisses},
		{"cache.store.errors", &c.storeErrs},
	} {
		n := r.Counter(ct.name)
		n.Add((*ct.c).Value())
		*ct.c = n
	}
}

// UseDir backs the memo with a store directory, created if absent. Each
// evaluation is one file at <root>/eval.v3/<kk>/<key hex> (kk = the key's
// first two hex digits), written atomically, so any number of processes
// may share root concurrently: a reader sees a whole entry or none, and
// same-key writers race benignly because equal keys carry equal results.
// Call it before evaluation starts; entries already memoized are not
// backfilled.
func (c *EvalCache) UseDir(root string) error {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return fmt.Errorf("core: store directory: %w", err)
	}
	c.mu.Lock()
	c.dir = filepath.Join(root, storeNS)
	c.mu.Unlock()
	return nil
}

// entryPath is the file holding key k under the store subdirectory dir.
func entryPath(dir string, k CacheKey) string {
	h := hex.EncodeToString(k[:])
	return filepath.Join(dir, h[:2], h)
}

// Get looks up a key, counting a hit or a miss. On a hit it returns the
// memoized evaluation or error. A memory miss consults the store directory
// before counting the miss; a store hit is installed in memory and counts
// as a hit, so Stats reflect work avoided wherever the evaluation came
// from. Store trouble degrades to a miss: the candidate is recomputed,
// never failed on the store's account.
func (c *EvalCache) Get(k CacheKey) (ev *Evaluation, err error, ok bool) {
	c.mu.Lock()
	e, ok := c.table[k]
	dir := c.dir
	if ok {
		c.hits.Inc()
	} else if dir == "" {
		c.misses.Inc()
	}
	c.mu.Unlock()
	if !ok && dir != "" {
		e, ok = c.storeGet(dir, k)
	}
	return e.ev, e.err, ok
}

// storeGet reads one entry from the store directory after a memory miss
// and counts the lookup's outcome: a missing file is a store miss, an
// unreadable or undecodable one a store error.
func (c *EvalCache) storeGet(dir string, k CacheKey) (memoEntry, bool) {
	data, err := os.ReadFile(entryPath(dir, k))
	var se storedEntry
	if err == nil {
		err = json.Unmarshal(data, &se)
	}
	if err == nil && se.Err == "" && se.Eval == nil {
		err = errors.New("store entry carries no evaluation")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.misses.Inc()
		if errors.Is(err, os.ErrNotExist) {
			c.storeMisses.Inc()
		} else {
			c.storeErrs.Inc()
		}
		return memoEntry{}, false
	}
	e := memoEntry{ev: se.Eval}
	if se.Err != "" {
		e = memoEntry{err: errors.New(se.Err)}
	}
	c.table[k] = e
	c.hits.Inc()
	c.storeHits.Inc()
	return e, true
}

// Put stores a completed evaluation (or its deterministic failure) under a
// key and writes it through to the store directory; a store write error is
// counted and otherwise ignored, since memory already has the entry.
// Concurrent Puts for the same key are benign: evaluation is a pure
// function of the key, so every writer stores the same result.
func (c *EvalCache) Put(k CacheKey, ev *Evaluation, err error) {
	c.mu.Lock()
	c.table[k] = memoEntry{ev: ev, err: err}
	dir := c.dir
	c.mu.Unlock()
	if dir == "" || (ev == nil && err == nil) {
		return
	}
	var se storedEntry
	if err != nil {
		se.Err = err.Error()
	} else {
		cp := *ev
		cp.Hardware = nil // figures travel, the live model does not
		se.Eval = &cp
	}
	data, jerr := json.Marshal(&se)
	if jerr == nil {
		p := entryPath(dir, k)
		if jerr = os.MkdirAll(filepath.Dir(p), 0o755); jerr == nil {
			jerr = atomicfile.WriteFile(p, data, 0o644)
		}
	}
	if jerr != nil {
		c.mu.Lock()
		c.storeErrs.Inc()
		c.mu.Unlock()
	}
}

// Stats returns the memo's hit and miss counts.
func (c *EvalCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits.Value(), c.misses.Value()
}

// StoreStats returns the store traffic: lookups the store directory served,
// lookups it could not answer, and store or decode errors that degraded to
// recomputation.
func (c *EvalCache) StoreStats() (hits, misses, errors uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.storeHits.Value(), c.storeMisses.Value(), c.storeErrs.Value()
}

// Len returns the number of memoized evaluations.
func (c *EvalCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.table)
}
