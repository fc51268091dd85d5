package blob

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// stores builds one of each implementation over fresh backing state.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	d, err := NewDir(filepath.Join(t.TempDir(), "cas"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"mem": NewMem(), "dir": d}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			k := KeyOf("compile", "machine A", "kernel 1")
			if _, err := s.Get("compile.v2", k); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get on empty store = %v, want ErrNotFound", err)
			}
			if ok, err := s.Has("compile.v2", k); err != nil || ok {
				t.Fatalf("Has on empty store = %v, %v", ok, err)
			}
			want := []byte(`{"compile":"add R1, R2, R3"}`)
			if err := s.Put("compile.v2", k, want); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("compile.v2", k)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Get = %q, %v; want %q", got, err, want)
			}
			if ok, err := s.Has("compile.v2", k); err != nil || !ok {
				t.Fatalf("Has after Put = %v, %v; want true", ok, err)
			}
			// Same key, different namespace: separate entry.
			if _, err := s.Get("simulate.v2", k); !errors.Is(err, ErrNotFound) {
				t.Fatalf("namespaces bleed: %v", err)
			}
			// Idempotent re-Put.
			if err := s.Put("compile.v2", k, want); err != nil {
				t.Fatalf("re-Put: %v", err)
			}
		})
	}
}

func TestStoreRejectsBadNamespace(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			k := KeyOf("x")
			for _, ns := range []string{"", "..", "a/b", "a b", ".hidden"} {
				if err := s.Put(ns, k, []byte("x")); err == nil {
					t.Errorf("Put accepted namespace %q", ns)
				}
			}
		})
	}
}

func TestKeyOfLengthPrefixed(t *testing.T) {
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Fatal("concatenation collision")
	}
	if s := KeyOf("stage", "input").String(); len(s) != 64 || strings.ToLower(s) != s {
		t.Fatalf("Key.String() = %q, want 64 lowercase hex digits", s)
	}
}

// TestOpenSpecs pins the -store grammar: mem and dir:PATH open stores;
// an empty dir path and anything else — remote http(s) URLs included —
// is rejected with an error naming the accepted forms.
func TestOpenSpecs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "deep", "store")
	for _, tc := range []struct {
		spec string
		want string // store type, or "" for a rejected spec
	}{
		{"mem", "*blob.Mem"},
		{"dir:" + dir, "*blob.Dir"},
		{"dir:", ""},
		{"http://h", ""},
		{"https://h", ""},
		{"s3://bucket", ""},
	} {
		s, err := Open(tc.spec)
		if tc.want != "" {
			if err != nil || fmt.Sprintf("%T", s) != tc.want {
				t.Errorf("Open(%q) = %T, %v; want %s", tc.spec, s, err, tc.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("Open(%q) = %T, want error", tc.spec, s)
		} else if tc.spec != "dir:" && !(strings.Contains(err.Error(), "mem") && strings.Contains(err.Error(), "dir:PATH")) {
			t.Errorf("Open(%q) error %q does not name mem and dir:PATH", tc.spec, err)
		}
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("dir store root not created: %v", err)
	}
}

func TestStoreConcurrent(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						// Writers of the same key carry the same bytes —
						// the store contract — while distinct keys mix.
						k := KeyOf("item", fmt.Sprint(i))
						want := []byte(fmt.Sprintf("blob %d", i))
						if err := s.Put("race.test", k, want); err != nil {
							t.Error(err)
							return
						}
						got, err := s.Get("race.test", k)
						if err != nil || !bytes.Equal(got, want) {
							t.Errorf("Get(%d) = %q, %v", i, got, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestDirStoreTwoProcesses proves the cross-process contract: a writer
// process (a re-exec of this test binary) populates a directory store,
// and the reader process (this one) hits every blob.
func TestDirStoreTwoProcesses(t *testing.T) {
	root := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestDirStoreWriterProcess$", "-test.v")
	cmd.Env = append(os.Environ(), "BLOB_TEST_WRITER_ROOT="+root)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("writer process failed: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("PASS")) {
		t.Fatalf("writer process did not pass:\n%s", out)
	}
	s, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		got, err := s.Get("twoproc", KeyOf("entry", fmt.Sprint(i)))
		if err != nil {
			t.Fatalf("reader miss on entry %d: %v", i, err)
		}
		var v struct{ N int }
		if err := json.Unmarshal(got, &v); err != nil || v.N != i {
			t.Fatalf("entry %d = %q, %v", i, got, err)
		}
	}
}

// TestDirStoreWriterProcess is the writer half of
// TestDirStoreTwoProcesses; it only runs when re-executed with the
// environment set.
func TestDirStoreWriterProcess(t *testing.T) {
	root := os.Getenv("BLOB_TEST_WRITER_ROOT")
	if root == "" {
		t.Skip("writer-process helper; run via TestDirStoreTwoProcesses")
	}
	s, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		data, _ := json.Marshal(struct{ N int }{i})
		if err := s.Put("twoproc", KeyOf("entry", fmt.Sprint(i)), data); err != nil {
			t.Fatal(err)
		}
	}
}
