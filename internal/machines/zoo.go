package machines

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/isdl"
)

// The machine zoo: every bundled ISDL description under a stable name, in a
// deterministic order. The suite registry, the examples and the CLIs all
// enumerate machines through this table, so adding a description here is the
// single step that makes it visible everywhere.

// ZooEntry is one bundled machine.
type ZooEntry struct {
	// Name is the stable lookup key ("toy", "spam", ...).
	Name string
	// Source is the ISDL text.
	Source string
	// Parse builds the parsed description (panics on error; the sources
	// are compiled-in constants covered by tests).
	Parse func() *isdl.Description
}

// Zoo returns the bundled machines in their canonical order.
func Zoo() []ZooEntry {
	return []ZooEntry{
		{Name: "toy", Source: ToySource, Parse: Toy},
		{Name: "risc32", Source: RISC32Source, Parse: RISC32},
		{Name: "riscv5", Source: RISCV5Source, Parse: RISCV5},
		{Name: "spam", Source: SPAMSource, Parse: SPAM},
		{Name: "spam2", Source: SPAM2Source, Parse: SPAM2},
	}
}

// ZooNames returns the zoo's machine names in canonical order.
func ZooNames() []string {
	zoo := Zoo()
	names := make([]string, len(zoo))
	for i, e := range zoo {
		names[i] = e.Name
	}
	return names
}

// ByName parses the named zoo machine.
func ByName(name string) (*isdl.Description, error) {
	for _, e := range Zoo() {
		if e.Name == name {
			return e.Parse(), nil
		}
	}
	return nil, unknown(name)
}

// Source resolves a command's machine argument: a zoo name yields the
// bundled ISDL text, anything else is read as an ISDL file path. An
// argument that is neither reports the zoo names alongside the file error.
func Source(arg string) (string, error) {
	for _, e := range Zoo() {
		if e.Name == arg {
			return e.Source, nil
		}
	}
	blob, err := os.ReadFile(arg)
	if err != nil {
		return "", fmt.Errorf("%w, and no ISDL file: %w", unknown(arg), err)
	}
	return string(blob), nil
}

func unknown(name string) error {
	known := ZooNames()
	sort.Strings(known)
	return fmt.Errorf("machines: unknown machine %q (have %v)", name, known)
}
