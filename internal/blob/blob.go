// Package blob is the shared content-addressed artifact substrate
// (ROADMAP item 2): a Store holds immutable blobs under a SHA-256 key
// inside a flat namespace (one namespace per artifact family), so any
// artifact produced by one process — a whole candidate evaluation, a
// built aot simulator binary — is available to every other process
// sharing the store. Two implementations ship:
//
//   - Mem: in-process map, for a single process and for tests.
//   - Dir: one file per blob under a root directory, written atomically
//     (temp+fsync+rename via internal/atomicfile) so concurrent
//     processes sharing the directory never observe a partial blob.
//
// Keys are produced by the callers (internal/core's evaluation cache
// hashes the exact inputs an evaluation reads; internal/gensim keys by
// description fingerprint), so the store itself is a dumb, durable map: a blob's
// bytes are fully determined by its key, writes of the same key are
// idempotent, and entries never expire.
package blob

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// Key addresses one blob inside a namespace: a SHA-256 digest of the
// inputs that determine the blob's content.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the on-disk form).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyOf hashes the parts into a Key. Parts are length-prefixed, so no
// two distinct part sequences collide by concatenation.
func KeyOf(parts ...string) Key {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		for i, l := 0, len(p); i < 8; i++ {
			n[i] = byte(l >> (8 * i))
		}
		h.Write(n[:])
		h.Write([]byte(p))
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// ErrNotFound reports a key with no blob in its namespace.
var ErrNotFound = errors.New("blob: not found")

// Store is a durable, concurrency-safe map from (namespace, key) to an
// immutable byte blob. Put is idempotent — the same key always carries
// the same bytes, so concurrent writers race benignly — and Get returns
// ErrNotFound (possibly wrapped) for absent keys. Any other error is
// environmental (I/O) and callers should degrade to
// recomputing, never fail.
type Store interface {
	// Get returns the blob stored under ns/key, or an error wrapping
	// ErrNotFound.
	Get(ns string, key Key) ([]byte, error)
	// Put stores the blob under ns/key, durably for Dir (atomic write).
	Put(ns string, key Key, data []byte) error
	// Has reports whether ns/key holds a blob, without fetching it.
	Has(ns string, key Key) (bool, error)
}

// checkNS validates a namespace: non-empty, and restricted to a charset
// that is safe as a single path segment on every store (no separators,
// no dot-dot, nothing needing escaping).
func checkNS(ns string) error {
	if ns == "" {
		return errors.New("blob: empty namespace")
	}
	if strings.HasPrefix(ns, ".") {
		return fmt.Errorf("blob: bad namespace %q", ns)
	}
	for _, r := range ns {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '-' || r == '_':
		default:
			return fmt.Errorf("blob: bad namespace %q", ns)
		}
	}
	return nil
}

// Open builds a store from a spec string (the CLIs' -store flag):
//
//	mem        in-process only (testing)
//	dir:PATH   shared directory CAS, created if absent
func Open(spec string) (Store, error) {
	switch {
	case spec == "mem":
		return NewMem(), nil
	case strings.HasPrefix(spec, "dir:"):
		return NewDir(strings.TrimPrefix(spec, "dir:"))
	}
	return nil, fmt.Errorf("blob: unknown store spec %q (want mem or dir:PATH)", spec)
}
