package core

// The StageCache's shared substrate. A BlobStore (internal/blob) turns
// the per-process memo table into a cross-process cache:
// every serializable stage artifact is written through to the store on
// Put, and a memory miss consults the store before declaring a real
// miss — so an architecture evaluated by any process against the same
// store is never evaluated again by anyone. The in-memory tables remain
// the first tier (they also hold the unserializable stages: parse ASTs
// and assembled programs), the store is the second.

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/blob"
)

// BlobStore is the pluggable artifact substrate behind a StageCache:
// Get/Put/Has by SHA-256 key inside a stage namespace. Two
// implementations ship in internal/blob — in-memory (blob.Mem, the old
// single-process behavior) and local-directory CAS (blob.Dir, safe for
// concurrent processes via atomic temp+fsync+rename writes) — selected
// by blob.Open("mem" | "dir:PATH").
type BlobStore = blob.Store

// storeBacked marks the stages whose artifacts serialize to store blobs.
// Parse and Assemble hold live ASTs and stay memory-only; everything
// else — including Combine, whose hit short-circuits the whole
// pipeline, and Codegen, whose artifact is validated against the local
// filesystem on the way in — is shared.
var storeBacked = [NumStages]bool{
	StageCompile:    true,
	StageSimulate:   true,
	StageSynthesize: true,
	StageCombine:    true,
	StageCodegen:    true,
}

// storeNS is a stage's blob namespace. It carries the persistence format
// version, so a store populated by an older toolchain is simply invisible
// to a newer one instead of misread.
func storeNS(s Stage) string { return fmt.Sprintf("%s.v%d", s, persistVersion) }

// SetStore attaches the shared artifact store. Set it before evaluation
// starts; entries already memoized are not backfilled. A nil store
// detaches (memory-only, the default).
func (c *StageCache) SetStore(bs BlobStore) {
	c.mu.Lock()
	c.store = bs
	c.mu.Unlock()
}

// storeGet consults the attached store after a memory miss. A store hit
// is decoded, installed in the memory tier and counted as a stage hit;
// store trouble (I/O, decode, a codegen binary that does not exist
// on this machine) degrades to a miss — the stage recomputes, evaluation
// never fails on the store's account.
func (c *StageCache) storeGet(bs BlobStore, s Stage, k CacheKey) (stageEntry, bool) {
	data, err := bs.Get(storeNS(s), blob.Key(k))
	if err != nil {
		c.mu.Lock()
		if errors.Is(err, blob.ErrNotFound) {
			c.storeMisses.Inc()
		} else {
			c.storeErrs.Inc()
		}
		c.mu.Unlock()
		return stageEntry{}, false
	}
	e, err := decodeStageBlob(s, data)
	if err != nil {
		c.mu.Lock()
		c.storeErrs.Inc()
		c.mu.Unlock()
		return stageEntry{}, false
	}
	if !storeEntryUsable(s, e) {
		c.mu.Lock()
		c.storeMisses.Inc()
		c.mu.Unlock()
		return stageEntry{}, false
	}
	c.mu.Lock()
	c.tables[s][k] = e
	c.hits[s].Inc()
	c.storeHits.Inc()
	c.mu.Unlock()
	return e, true
}

// storePut writes one completed entry through to the store. Entries that
// do not serialize (live ASTs, nil values) and store errors are silently
// skipped — the memory tier already has the artifact.
func (c *StageCache) storePut(bs BlobStore, s Stage, k CacheKey, e stageEntry) {
	data, ok := encodeStageBlob(s, e)
	if !ok {
		return
	}
	if err := bs.Put(storeNS(s), blob.Key(k), data); err != nil {
		c.mu.Lock()
		c.storeErrs.Inc()
		c.mu.Unlock()
	}
}

// storeEntryUsable rejects store entries that are valid JSON but useless
// on this machine: a Codegen artifact names a binary in a local build
// cache, so an entry written by another host (or a since-cleaned cache)
// must recompute rather than hand the simulator a dangling path.
func storeEntryUsable(s Stage, e stageEntry) bool {
	if s != StageCodegen || e.err != nil {
		return true
	}
	a, ok := e.val.(CodegenArtifact)
	if !ok {
		return false
	}
	_, err := os.Stat(a.Bin)
	return err == nil
}

// StoreStats returns the store-tier traffic: hits served from the
// attached BlobStore, store lookups that found nothing, and store or
// decode errors that degraded to recomputation.
func (c *StageCache) StoreStats() (hits, misses, errors uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.storeHits.Value(), c.storeMisses.Value(), c.storeErrs.Value()
}
