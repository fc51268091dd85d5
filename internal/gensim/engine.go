package gensim

import (
	"errors"
	"fmt"

	"repro/internal/asm"
	"repro/internal/bitvec"
	"repro/internal/isdl"
	"repro/internal/xsim"
)

// Engine adapts a generated simulator to xsim.Engine. The child is
// stateless per request, so Run replays the whole program with a cumulative
// instruction limit; for the batch workloads the backend targets (load once,
// run to halt, read stats) each Run is a single request.
type Engine struct {
	d     *isdl.Description
	r     *runner
	build *BuildResult

	// StallModel mirrors xsim.Simulator.StallModel (default on).
	StallModel bool

	// Loaded program in wire form.
	loaded bool
	base   int
	words  []string
	data   []wireData
	entry  int

	// Run-continuation bookkeeping: cumulative instruction limit replayed
	// into each request. unlimited latches a Run(limit<=0).
	cum       int64
	unlimited bool

	resp  *wireResp // latest child response, nil before the first Run
	fault error

	perf struct {
		instructions, cycles, dataStalls, structStalls uint64
		decodeHits, decodeMisses                       uint64
		runNs                                          int64
	}
}

var _ xsim.Engine = (*Engine)(nil)

func init() {
	xsim.RegisterAOT(func(d *isdl.Description) (xsim.Engine, error) {
		return NewEngineFor(d)
	})
}

// NewEngineFor generates (or reuses from cache) the specialized simulator
// for d and connects to it. Returns ErrUnavailable / UnsupportedError for
// the fallback ladder.
func NewEngineFor(d *isdl.Description) (*Engine, error) {
	br, err := Build(d)
	if err != nil {
		return nil, err
	}
	r, err := newRunner(br.Bin, br.Fingerprint)
	if err != nil {
		return nil, err
	}
	return &Engine{d: d, r: r, build: br, StallModel: true}, nil
}

// Build returns how the engine's simulator was produced (cache hit, build
// time); nil on a hand-constructed engine.
func (e *Engine) Build() *BuildResult { return e.build }

// Load stages an assembled program. Bounds are validated host-side with
// state's exact messages so Load-time errors match the other backends.
func (e *Engine) Load(p *asm.Program) error {
	im := e.d.InstructionMemory()
	if p.Base < 0 || p.Base+len(p.Words) > im.Depth {
		return fmt.Errorf("state: program of %d words at %d exceeds %s depth %d",
			len(p.Words), p.Base, im.Name, im.Depth)
	}
	words := make([]string, len(p.Words))
	for i, w := range p.Words {
		words[i] = encodeHex(w)
	}
	var data []wireData
	for _, di := range p.Data {
		st, ok := e.d.StorageByName[di.Storage]
		if !ok {
			return fmt.Errorf("state: unknown storage %s", di.Storage)
		}
		if di.Base < 0 || di.Base+len(di.Values) > st.Depth {
			return fmt.Errorf("state: %d words at %d exceed %s depth %d",
				len(di.Values), di.Base, di.Storage, st.Depth)
		}
		vals := make([]string, len(di.Values))
		for i, v := range di.Values {
			vals[i] = encodeHex(v)
		}
		data = append(data, wireData{Storage: di.Storage, Base: di.Base, Values: vals})
	}
	entry := p.Base
	for _, s := range []string{"start", "main"} {
		if a, ok := p.Symbols[s]; ok {
			entry = a
			break
		}
	}
	e.loaded = true
	e.base, e.words, e.data, e.entry = p.Base, words, data, entry
	e.cum, e.unlimited = 0, false
	e.resp, e.fault = nil, nil
	return nil
}

// Run executes until halt or limit more instructions (limit <= 0: no
// limit), replaying from the load point with the cumulative limit.
func (e *Engine) Run(limit int64) error {
	if !e.loaded {
		return errors.New("gensim: no program loaded")
	}
	if e.resp != nil && e.resp.Halted {
		return e.fault
	}
	if limit <= 0 {
		e.unlimited = true
	} else if !e.unlimited {
		e.cum += limit
	}
	resp, err := e.r.run(e.makeReq(false))
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	e.resp = resp
	e.fault = nil
	if resp.Fault != "" {
		e.fault = errors.New(resp.Fault)
	}
	// Perf counters accumulate the work of this request (a replayed prefix
	// counts as work: the simulator really executed it).
	e.perf.instructions += resp.Instructions
	e.perf.cycles += resp.Cycle
	e.perf.dataStalls += resp.DataStalls
	e.perf.structStalls += resp.StructStalls
	e.perf.decodeHits += resp.DecodeHits
	e.perf.decodeMisses += resp.DecodeMisses
	e.perf.runNs += resp.RunNs
	return e.fault
}

// Halted reports whether the simulated machine stopped.
func (e *Engine) Halted() bool { return e.resp != nil && e.resp.Halted }

// Err returns the fault that halted the machine, if any.
func (e *Engine) Err() error { return e.fault }

// Cycle returns the simulated cycle count.
func (e *Engine) Cycle() uint64 {
	if e.resp == nil {
		return 0
	}
	return e.resp.Cycle
}

// Stats returns architectural statistics identical to the other backends'.
func (e *Engine) Stats() *xsim.Stats {
	s := &xsim.Stats{
		OpCounts:   map[string]uint64{},
		FieldIssue: make([]uint64, len(e.d.Fields)),
	}
	if e.resp == nil {
		return s
	}
	s.Cycles = e.resp.Cycle
	s.Instructions = e.resp.Instructions
	s.DataStalls = e.resp.DataStalls
	s.StructStalls = e.resp.StructStalls
	s.Reads = e.resp.Reads
	s.Writes = e.resp.Writes
	for k, v := range e.resp.OpCounts {
		s.OpCounts[k] = v
	}
	copy(s.FieldIssue, e.resp.FieldIssue)
	return s
}

// Perf returns the engine's own performance counters with derived rates.
func (e *Engine) Perf() xsim.PerfReport {
	p := xsim.PerfReport{
		Instructions: e.perf.instructions,
		Cycles:       e.perf.cycles,
		DataStalls:   e.perf.dataStalls,
		StructStalls: e.perf.structStalls,
		DecodeHits:   e.perf.decodeHits,
		DecodeMisses: e.perf.decodeMisses,
	}
	p.DeriveRates(e.perf.runNs)
	return p
}

// makeReq builds the replay request for the staged program and cumulative
// limit; wantState additionally asks for the full final state dump (kept
// off the common path — encoding it costs the child more than most runs).
func (e *Engine) makeReq(wantState bool) *wireReq {
	req := &wireReq{
		Op:        "run",
		Base:      e.base,
		Words:     e.words,
		Data:      e.data,
		Entry:     e.entry,
		Stall:     e.StallModel,
		WantState: wantState,
	}
	if !e.unlimited {
		req.Limit = e.cum
	}
	return req
}

// Snapshot captures every storage element. Before the first Run this is the
// post-Load state, synthesized host-side (the child holds no state between
// requests); afterwards it replays the deterministic run once more with the
// state dump enabled and decodes the child's final state. The replay's perf
// is not accumulated — Snapshot is an observation, not simulated progress.
func (e *Engine) Snapshot() map[string][]bitvec.Value {
	out := make(map[string][]bitvec.Value, len(e.d.Storage))
	if e.resp != nil && e.resp.State == nil {
		if resp, err := e.r.run(e.makeReq(true)); err == nil && resp.Err == "" {
			e.resp.State = resp.State
		}
	}
	if e.resp != nil {
		for _, ws := range e.resp.State {
			st, ok := e.d.StorageByName[ws.Storage]
			if !ok {
				continue
			}
			vals := make([]bitvec.Value, len(ws.Values))
			for i, s := range ws.Values {
				vals[i] = decodeHex(st.Width, s)
			}
			out[ws.Storage] = vals
		}
		return out
	}
	for _, st := range e.d.Storage {
		vals := make([]bitvec.Value, st.Depth)
		for i := range vals {
			vals[i] = bitvec.New(st.Width)
		}
		out[st.Name] = vals
	}
	if e.loaded {
		im := e.d.InstructionMemory()
		for i, w := range e.words {
			out[im.Name][e.base+i] = decodeHex(im.Width, w)
		}
		for _, di := range e.data {
			st := e.d.StorageByName[di.Storage]
			for i, v := range di.Values {
				out[di.Storage][di.Base+i] = decodeHex(st.Width, v)
			}
		}
		pc := e.d.PC()
		out[pc.Name][0] = bitvec.FromUint64(pc.Width, uint64(e.entry))
	}
	return out
}

// Description returns the simulated machine description.
func (e *Engine) Description() *isdl.Description { return e.d }

// Close shuts the child simulator down.
func (e *Engine) Close() error {
	if e.r != nil {
		e.r.close()
	}
	return nil
}

// encodeHex renders a bitvec as the wire's plain-hex format (big-endian
// nibbles over the value's 64-bit words).
func encodeHex(v bitvec.Value) string {
	n := (v.Width() + 63) / 64
	if n <= 1 {
		return fmt.Sprintf("%x", v.Uint64())
	}
	ws := make([]uint64, n)
	for c := 0; c < n; c++ {
		hi := c*64 + 63
		if hi >= v.Width() {
			hi = v.Width() - 1
		}
		ws[c] = v.Slice(hi, c*64).Uint64()
	}
	i := n - 1
	for i > 0 && ws[i] == 0 {
		i--
	}
	s := fmt.Sprintf("%x", ws[i])
	for i--; i >= 0; i-- {
		s += fmt.Sprintf("%016x", ws[i])
	}
	return s
}

// decodeHex parses the wire's plain-hex format at the given width.
func decodeHex(width int, s string) bitvec.Value {
	ws := make([]uint64, (len(s)+15)/16)
	for i := 0; i < len(s); i++ {
		c := s[len(s)-1-i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		}
		ws[i/16] |= d << (uint(i%16) * 4)
	}
	return bitvec.FromWords(width, ws)
}
