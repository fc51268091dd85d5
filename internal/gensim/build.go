package gensim

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/isdl"
)

// Disabled reports whether the aot backend is switched off by environment:
// REPRO_GENSIM_DISABLE set (CI fallback smoke tests use this) or no Go
// toolchain on PATH.
func Disabled() bool {
	if os.Getenv("REPRO_GENSIM_DISABLE") != "" {
		return true
	}
	_, err := goTool()
	return err != nil
}

// goTool resolves the Go toolchain binary: REPRO_GENSIM_GO overrides, else
// $PATH.
func goTool() (string, error) {
	if g := os.Getenv("REPRO_GENSIM_GO"); g != "" {
		return g, nil
	}
	return exec.LookPath("go")
}

// CacheDir is where built simulator binaries live, keyed by fingerprint:
// REPRO_GENSIM_CACHE, else the user cache dir, else the system temp dir.
func CacheDir() string {
	if d := os.Getenv("REPRO_GENSIM_CACHE"); d != "" {
		return d
	}
	if d, err := os.UserCacheDir(); err == nil {
		return filepath.Join(d, "repro-gensim")
	}
	return filepath.Join(os.TempDir(), "repro-gensim")
}

// BuildResult describes one generate+build: where the binary landed,
// whether the cache already had it, and how long codegen+build took.
type BuildResult struct {
	Dir         string // cache entry directory
	Bin         string // built simulator binary
	Fingerprint string
	CacheHit    bool
	BuildNs     int64
}

// Build generates, compiles and caches the specialized simulator for d.
// Returns ErrUnavailable when the toolchain is missing or the backend is
// disabled, an UnsupportedError when d is outside the compilable subset.
func Build(d *isdl.Description) (*BuildResult, error) {
	if os.Getenv("REPRO_GENSIM_DISABLE") != "" {
		return nil, ErrUnavailable
	}
	gobin, err := goTool()
	if err != nil {
		return nil, ErrUnavailable
	}
	fp := Fingerprint(d)
	dir := filepath.Join(CacheDir(), fp)
	bin := filepath.Join(dir, "sim")
	if _, err := os.Stat(bin); err == nil {
		return &BuildResult{Dir: dir, Bin: bin, Fingerprint: fp, CacheHit: true}, nil
	}

	start := time.Now()
	src, err := Generate(d)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("gensim: cache dir: %w", err)
	}
	// Keep the source in the cache entry: it is the artifact to read when
	// debugging.
	if err := writeModule(dir, src); err != nil {
		return nil, err
	}
	// Build in a scratch dir and rename into place so concurrent builders
	// of the same description race benignly.
	tmp, err := os.MkdirTemp(dir, "build-*")
	if err != nil {
		return nil, fmt.Errorf("gensim: scratch dir: %w", err)
	}
	defer os.RemoveAll(tmp)
	if err := writeModule(tmp, src); err != nil {
		return nil, err
	}
	out, err := runGoBuild(gobin, tmp, filepath.Join(tmp, "sim"))
	if err != nil {
		return nil, fmt.Errorf("gensim: go build: %v\n%s", err, firstLines(out, 20))
	}
	if err := os.Rename(filepath.Join(tmp, "sim"), bin); err != nil {
		// A concurrent build may have won the race; its binary is
		// identical (same fingerprint), so losing is fine.
		if _, statErr := os.Stat(bin); statErr != nil {
			return nil, fmt.Errorf("gensim: install binary: %w", err)
		}
	}
	return &BuildResult{
		Dir:         dir,
		Bin:         bin,
		Fingerprint: fp,
		BuildNs:     time.Since(start).Nanoseconds(),
	}, nil
}

// writeModule lays out a self-contained module around the generated
// main. Writes are atomic (internal/atomicfile) because the cache entry
// directory is shared: a concurrent process reading the entry must never
// see a torn file.
func writeModule(dir, src string) error {
	gomod := "module gensim-generated\n\ngo 1.21\n"
	if err := atomicfile.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		return fmt.Errorf("gensim: write go.mod: %w", err)
	}
	if err := atomicfile.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		return fmt.Errorf("gensim: write main.go: %w", err)
	}
	return nil
}

// runGoBuild invokes the toolchain with an isolated build environment.
func runGoBuild(gobin, dir, out string) ([]byte, error) {
	cmd := exec.Command(gobin, "build", "-o", out, ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(),
		"GOFLAGS=-mod=mod",
		"GO111MODULE=on",
		"GOWORK=off",
	)
	return cmd.CombinedOutput()
}

func firstLines(b []byte, n int) string {
	lines := strings.SplitN(string(b), "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
