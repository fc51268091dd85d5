package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the paper command itself.
func TestMain(m *testing.M) {
	if os.Getenv("PAPER_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runPaper runs the command with args and returns its stderr and exit code.
func runPaper(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PAPER_RUN_MAIN=1")
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

// TestUnknownChoiceIsUsageError: a -table or -ablation value outside the
// documented set must fail like a malformed flag, not print nothing and
// succeed.
func TestUnknownChoiceIsUsageError(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-table", "3", "-ablation", "none"}, `invalid value "3" for flag -table`},
		{[]string{"-table", "none", "-ablation", "nonsense"}, `invalid value "nonsense" for flag -ablation`},
	} {
		stderr, code := runPaper(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) || !strings.Contains(stderr, "Usage") {
			t.Errorf("paper %v: exit %d, stderr %q; want exit 2 with %q and the usage",
				tc.args, code, stderr, tc.want)
		}
	}
	if stderr, code := runPaper(t, "-table", "none", "-ablation", "none"); code != 0 {
		t.Errorf("paper -table none -ablation none: exit %d, stderr %q", code, stderr)
	}
}
