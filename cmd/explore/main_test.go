package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the explore command itself.
func TestMain(m *testing.M) {
	if os.Getenv("EXPLORE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runExplore runs the command with args and returns its stderr and exit
// code.
func runExplore(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPLORE_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return stderr.String(), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return stderr.String(), 0
}

// TestStrategyFlagMisuseIsError: a strategy flag the chosen strategy
// would ignore, or a width it would silently rewrite, fails before the
// run instead of exploring something other than what was asked.
func TestStrategyFlagMisuseIsError(t *testing.T) {
	base := []string{"-m", "toy", "-k", "../../examples/kernels/sum.k", "-iters", "1", "-workers", "1", "-no-summary"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-strategy", "beam", "-beam", "-3"}, "-beam -3: want a width of at least 1"},
		{[]string{"-strategy", "beam", "-beam", "0"}, "-beam 0: want a width of at least 1"},
		{[]string{"-strategy", "pareto", "-frontier-cap", "-2"}, "-frontier-cap -2: want 0 (unbounded) or a positive cap"},
		{[]string{"-beam", "7"}, "-beam requires -strategy beam"},
		{[]string{"-strategy", "hill", "-beam", "4"}, "-beam requires -strategy beam"},
		{[]string{"-strategy", "pareto", "-beam", "2"}, "-beam requires -strategy beam"},
		{[]string{"-strategy", "hill", "-frontier-cap", "2"}, "-frontier-cap requires -strategy pareto"},
		{[]string{"-strategy", "beam", "-frontier-cap", "0"}, "-frontier-cap requires -strategy pareto"},
		{[]string{"-max-area", "1e6"}, "require -strategy pareto"},
		{[]string{"-store", "mem"}, `-store "mem": want dir:PATH`},
	} {
		args := append(append([]string{}, base...), tc.args...)
		stderr, code := runExplore(t, args...)
		if code == 0 || !strings.Contains(stderr, tc.want) {
			t.Errorf("explore %v: exit %d, stderr %q; want failure naming %q", tc.args, code, stderr, tc.want)
		}
	}
	for _, ok := range [][]string{
		{"-strategy", "beam", "-beam", "2"},
		{"-strategy", "pareto", "-frontier-cap", "2"},
	} {
		if stderr, code := runExplore(t, append(append([]string{}, base...), ok...)...); code != 0 {
			t.Errorf("explore %v: exit %d, stderr %q; want success", ok, code, stderr)
		}
	}
}

// TestStoreDir pins the -store grammar: dir:PATH names the store
// directory; an empty path, the retired mem spec and remote URLs are
// rejected with an error naming dir:PATH.
func TestStoreDir(t *testing.T) {
	if root, err := storeDir("dir:/tmp/deep/store"); err != nil || root != "/tmp/deep/store" {
		t.Errorf("storeDir(dir:/tmp/deep/store) = %q, %v", root, err)
	}
	for _, bad := range []string{"dir:", "mem", "http://h", "https://h", "s3://bucket", "/tmp/store"} {
		if root, err := storeDir(bad); err == nil || !strings.Contains(err.Error(), "dir:PATH") {
			t.Errorf("storeDir(%q) = %q, %v; want an error naming dir:PATH", bad, root, err)
		}
	}
}

// TestFrontierWriterFor pins the -frontier-out format selection: extension
// picks the serializer, anything else fails before the run starts.
func TestFrontierWriterFor(t *testing.T) {
	if w, err := frontierWriterFor(""); w != nil || err != nil {
		t.Errorf("empty name: writer non-nil=%v, err %v; want nil, nil", w != nil, err)
	}
	for _, ok := range []string{"frontier.json", "out/frontier.csv"} {
		w, err := frontierWriterFor(ok)
		if w == nil || err != nil {
			t.Errorf("%s: writer non-nil=%v, err %v; want serializer", ok, w != nil, err)
		}
	}
	for _, bad := range []string{"frontier.txt", "frontier", "frontier.jsonl"} {
		if _, err := frontierWriterFor(bad); err == nil {
			t.Errorf("%s: accepted, want extension error", bad)
		}
	}
}
