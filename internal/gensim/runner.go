package gensim

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"sync"
	"time"
)

// Host-side protocol client. The wire structures mirror the generated
// child's (genruntime.go) field for field; values cross as plain hex
// strings so storages wider than 53 bits survive JSON number precision.

type wireHandshake struct {
	Proto   int    `json:"gensim"`
	FP      string `json:"fp"`
	Machine string `json:"machine"`
}

type wireData struct {
	Storage string   `json:"storage"`
	Base    int      `json:"base"`
	Values  []string `json:"values"`
}

type wireReq struct {
	Op    string     `json:"op"`
	Base  int        `json:"base"`
	Words []string   `json:"words"`
	Data  []wireData `json:"data,omitempty"`
	Entry int        `json:"entry"`
	Limit int64      `json:"limit"`
	Stall bool       `json:"stall"`
	// WantState asks the child for the full final state dump (expensive:
	// one hex string per storage element); only Snapshot sets it.
	WantState bool `json:"state,omitempty"`
}

type wireState struct {
	Storage string   `json:"storage"`
	Values  []string `json:"values"`
}

type wireResp struct {
	OK           bool              `json:"ok"`
	Err          string            `json:"err,omitempty"`
	Fault        string            `json:"fault,omitempty"`
	Halted       bool              `json:"halted"`
	Cycle        uint64            `json:"cycle"`
	Instructions uint64            `json:"instructions"`
	DataStalls   uint64            `json:"data_stalls"`
	StructStalls uint64            `json:"struct_stalls"`
	Reads        uint64            `json:"reads"`
	Writes       uint64            `json:"writes"`
	OpCounts     map[string]uint64 `json:"op_counts,omitempty"`
	FieldIssue   []uint64          `json:"field_issue,omitempty"`
	DecodeHits   uint64            `json:"decode_hits"`
	DecodeMisses uint64            `json:"decode_misses"`
	RunNs        int64             `json:"run_ns"`
	State        []wireState       `json:"state,omitempty"`
}

// runner drives one generated simulator subprocess over stdin/stdout.
type runner struct {
	mu    sync.Mutex
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	dead  bool
}

// newRunner spawns the built simulator and verifies the handshake.
func newRunner(bin, fp string) (*runner, error) {
	cmd := exec.Command(bin)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("gensim: stdin pipe: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("gensim: stdout pipe: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("gensim: start simulator: %w", err)
	}
	r := &runner{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	line, err := r.out.ReadBytes('\n')
	if err != nil {
		r.kill()
		return nil, fmt.Errorf("gensim: handshake read: %w", err)
	}
	var hs wireHandshake
	if err := json.Unmarshal(line, &hs); err != nil {
		r.kill()
		return nil, fmt.Errorf("gensim: handshake parse: %w", err)
	}
	if hs.Proto != ProtoVersion {
		r.kill()
		return nil, fmt.Errorf("gensim: protocol version %d from child, host speaks %d", hs.Proto, ProtoVersion)
	}
	if fp != "" && hs.FP != fp {
		r.kill()
		return nil, fmt.Errorf("gensim: fingerprint mismatch: child %s, want %s", hs.FP, fp)
	}
	return r, nil
}

// run executes one request/response round trip. Serialized: the child
// handles one request at a time.
func (r *runner) run(req *wireReq) (*wireResp, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dead {
		return nil, fmt.Errorf("gensim: simulator process is gone")
	}
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	b = append(b, '\n')
	if _, err := r.stdin.Write(b); err != nil {
		r.dead = true
		return nil, fmt.Errorf("gensim: write request: %w", err)
	}
	line, err := r.out.ReadBytes('\n')
	if err != nil {
		r.dead = true
		return nil, fmt.Errorf("gensim: read response: %w", err)
	}
	var resp wireResp
	if err := json.Unmarshal(line, &resp); err != nil {
		return nil, fmt.Errorf("gensim: parse response: %w", err)
	}
	return &resp, nil
}

// close asks the child to quit, then reaps it; kill after a grace period.
func (r *runner) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.dead {
		r.stdin.Write([]byte(`{"op":"quit"}` + "\n"))
	}
	r.stdin.Close()
	done := make(chan struct{})
	go func() {
		r.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		r.cmd.Process.Kill()
		<-done
	}
	r.dead = true
}

func (r *runner) kill() {
	r.cmd.Process.Kill()
	r.cmd.Wait()
}
