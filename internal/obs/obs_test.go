package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x") != c {
		t.Fatalf("Counter(x) not idempotent")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	if got := r.Counters()["x"]; got != 5 {
		t.Fatalf("Counters()[x] = %d, want 5", got)
	}
	if got := r.Gauges()["g"]; got != 4 {
		t.Fatalf("Gauges()[g] = %d, want 4", got)
	}
}

func TestCounterConcurrentExact(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d (lost increments)", got, workers*perWorker)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c").Observe(time.Millisecond)
	sp := r.StartSpan("root")
	sp.SetArg("k", "v")
	child := sp.Child("child")
	child.End()
	sp.End()
	r.SetLaneName(1, "x")
	if r.Spans() != nil || r.Counters() != nil {
		t.Fatalf("nil registry should return nil snapshots")
	}
	if err := r.WriteText(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteText: %v", err)
	}
	if err := r.WriteMetricsJSON(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteMetricsJSON: %v", err)
	}
	if err := r.WriteTrace(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteTrace: %v", err)
	}
	var c *Counter
	c.Inc()
	c.Add(2)
	if c.Value() != 0 {
		t.Fatalf("nil counter value")
	}
	var h *Histogram
	h.Observe(time.Second)
	if h.Snapshot().Count != 0 {
		t.Fatalf("nil histogram snapshot")
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	h.ObserveNs(1500)
	s := h.Snapshot()
	if s.Count != 1 || s.MinNs != 1500 || s.MaxNs != 1500 {
		t.Fatalf("snapshot = %+v", s)
	}
	// Quantiles of a single observation must be that observation exactly
	// (clamped to [min, max]).
	for _, q := range []float64{s.P50Ns, s.P95Ns, s.P99Ns} {
		if q != 1500 {
			t.Fatalf("quantile = %v, want 1500", q)
		}
	}
	if s.MeanNs() != 1500 {
		t.Fatalf("mean = %v", s.MeanNs())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// 100 observations: 1000ns ... 100000ns in equal steps.
	for i := 1; i <= 100; i++ {
		h.ObserveNs(float64(i) * 1000)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	// Power-of-two buckets are coarse; accept the right order of magnitude
	// and monotone ordering.
	if s.P50Ns < 20000 || s.P50Ns > 80000 {
		t.Fatalf("p50 = %v, want within [20000, 80000]", s.P50Ns)
	}
	if !(s.P50Ns <= s.P95Ns && s.P95Ns <= s.P99Ns && s.P99Ns <= s.MaxNs) {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v max=%v", s.P50Ns, s.P95Ns, s.P99Ns, s.MaxNs)
	}
	if s.MinNs != 1000 || s.MaxNs != 100000 {
		t.Fatalf("min/max = %v/%v", s.MinNs, s.MaxNs)
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	h := &Histogram{}
	h.ObserveNs(-5) // clamped to 0
	h.ObserveNs(0)
	s := h.Snapshot()
	if s.Count != 2 || s.MinNs != 0 || s.MaxNs != 0 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestSpansAndTraceExport(t *testing.T) {
	r := NewRegistry()
	r.SetLaneName(0, "explorer")
	r.SetLaneName(1, "worker 1")
	root := r.StartSpan("iteration")
	root.SetArg("iter", "1")
	cand := r.StartSpanLane("candidate", 1)
	stage := cand.Child("simulate")
	time.Sleep(time.Millisecond)
	stage.End()
	cand.End()
	root.End()

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	var stageRec, candRec *SpanRecord
	for i := range spans {
		switch spans[i].Name {
		case "simulate":
			stageRec = &spans[i]
		case "candidate":
			candRec = &spans[i]
		}
	}
	if stageRec == nil || candRec == nil {
		t.Fatalf("missing span records: %+v", spans)
	}
	if stageRec.Parent != candRec.ID {
		t.Fatalf("child parent = %d, want %d", stageRec.Parent, candRec.ID)
	}
	if stageRec.Lane != 1 {
		t.Fatalf("child lane = %d, want inherited 1", stageRec.Lane)
	}
	if stageRec.Dur < time.Millisecond {
		t.Fatalf("child dur = %v, want >= 1ms", stageRec.Dur)
	}

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var meta, complete int
	var sawIterArg bool
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Name == "iteration" && ev.Args["iter"] == "1" {
				sawIterArg = true
			}
			if ev.Dur < 0 || ev.Ts < 0 {
				t.Fatalf("negative ts/dur: %+v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 3 { // process_name + 2 lane names
		t.Fatalf("metadata events = %d, want 3", meta)
	}
	if complete != 3 {
		t.Fatalf("complete events = %d, want 3", complete)
	}
	if !sawIterArg {
		t.Fatalf("iteration span args not exported")
	}
}

func TestMetricsJSONExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("cache.simulate.hits").Add(3)
	r.Gauge("explore.frontier.size").Set(0)
	r.Histogram("stage.simulate.ns").Observe(2 * time.Millisecond)
	var buf bytes.Buffer
	if err := r.WriteMetricsJSON(&buf); err != nil {
		t.Fatalf("WriteMetricsJSON: %v", err)
	}
	var doc struct {
		Counters   map[string]uint64            `json:"counters"`
		Gauges     map[string]int64             `json:"gauges"`
		Histograms map[string]HistogramSnapshot `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	if doc.Counters["cache.simulate.hits"] != 3 {
		t.Fatalf("counters = %+v", doc.Counters)
	}
	h, ok := doc.Histograms["stage.simulate.ns"]
	if !ok || h.Count != 1 {
		t.Fatalf("histograms = %+v", doc.Histograms)
	}
	if h.P50Ns <= 0 {
		t.Fatalf("p50 = %v, want > 0", h.P50Ns)
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("explore.moves.accepted").Add(2)
	r.Histogram("stage.parse.ns").Observe(10 * time.Microsecond)
	sp := r.StartSpan("run")
	sp.End()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"counters:", "explore.moves.accepted", "latency", "stage.parse.ns", "spans: 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text summary missing %q:\n%s", want, out)
		}
	}
}

// TestZeroCountHistogramAllExporters: a histogram that was created but
// never observed renders in every exporter without NaN/Inf and keeps the
// JSON documents valid.
func TestZeroCountHistogramAllExporters(t *testing.T) {
	r := NewRegistry()
	r.Histogram("never.observed.ns") // count 0
	sp := r.StartSpan("tick")
	sp.End()

	var text, metrics, trace bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Errorf("WriteText: %v", err)
	}
	if err := r.WriteMetricsJSON(&metrics); err != nil {
		t.Errorf("WriteMetricsJSON: %v", err)
	}
	if err := r.WriteTrace(&trace); err != nil {
		t.Errorf("WriteTrace: %v", err)
	}
	for name, out := range map[string]string{
		"text": text.String(), "metrics": metrics.String(), "trace": trace.String(),
	} {
		if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Errorf("%s exporter rendered NaN/Inf for a zero-count histogram:\n%s", name, out)
		}
	}
	if !json.Valid(metrics.Bytes()) {
		t.Error("metrics JSON invalid for zero-count histogram")
	}
	if !json.Valid(trace.Bytes()) {
		t.Error("trace JSON invalid for zero-count histogram")
	}
}
