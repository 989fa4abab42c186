package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLabeledVecs(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec(MAnalyses, "mode", "corner", "scheduler")
	cv.With("Iterative", "TT", "dataflow").Add(3)
	cv.With("Iterative", "TT", "dataflow").Inc()
	cv.With("Best case", "TT", "levels").Inc()
	if got := cv.With("Iterative", "TT", "dataflow").Value(); got != 4 {
		t.Errorf("same labels must resolve the same child: got %d, want 4", got)
	}
	if got := r.CounterVec(MAnalyses); got != cv {
		t.Error("re-registering the same family name must return the same vec")
	}

	hv := r.HistogramVec(MQueueWait, DurationBounds, "mode")
	hv.With("Iterative").Observe(0.003)
	if got := hv.With("Iterative").Count(); got != 1 {
		t.Errorf("histogram child count = %d, want 1", got)
	}

	// Miscounted With calls degrade to padded labels, not panics.
	cv.With("only-one").Inc()
	if got := cv.With("only-one", "", "").Value(); got != 1 {
		t.Errorf("short With must pad to the family arity: got %d", got)
	}

	// Nil-registry and nil-vec paths stay safe.
	var nilReg *Registry
	nilReg.CounterVec("x", "k").With("v").Inc()
	nilReg.GaugeVec("y", "k").With("v").Set(2)
	nilReg.HistogramVec("z", nil, "k").With("v").Observe(1)
	var nilVec *CounterVec
	nilVec.With("v").Inc()
}

func TestSnapshotFlattensAndSortsDeterministically(t *testing.T) {
	// Two registries populated in opposite orders must serialize
	// byte-identically (benchdiff -metrics depends on this).
	build := func(reverse bool) []byte {
		r := NewRegistry()
		series := [][3]string{
			{"Iterative", "TT", "dataflow"},
			{"Best case", "SS", "levels"},
			{"Worst case", "FF", "dataflow"},
		}
		if reverse {
			for i, j := 0, len(series)-1; i < j; i, j = i+1, j-1 {
				series[i], series[j] = series[j], series[i]
			}
			r.Counter(MPasses).Add(7)
		}
		cv := r.CounterVec(MAnalyses, "mode", "corner", "scheduler")
		for _, s := range series {
			cv.With(s[0], s[1], s[2]).Inc()
		}
		if !reverse {
			r.Counter(MPasses).Add(7)
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := build(false), build(true)
	if !bytes.Equal(a, b) {
		t.Errorf("snapshots differ by insertion order:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	var d Dump
	if err := json.Unmarshal(a, &d); err != nil {
		t.Fatal(err)
	}
	want := `analyses_total{mode="Iterative",corner="TT",scheduler="dataflow"}`
	if d.Counters[want] != 1 {
		t.Errorf("flattened series key %q missing from dump: %v", want, d.Counters)
	}
}

func TestGatherOrdering(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Inc()
	r.Counter("a_total").Inc()
	cv := r.CounterVec("c_total", "k")
	cv.With("z").Inc()
	cv.With("a").Inc()
	fams := r.Gather()
	for i := 1; i < len(fams); i++ {
		if fams[i-1].Name >= fams[i].Name {
			t.Fatalf("families not sorted: %q before %q", fams[i-1].Name, fams[i].Name)
		}
	}
	for _, f := range fams {
		if f.Name != "c_total" {
			continue
		}
		if len(f.Series) != 2 || f.Series[0].Labels[0] != "a" || f.Series[1].Labels[0] != "z" {
			t.Errorf("series not sorted by label tuple: %+v", f.Series)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(MArcEvaluations).Add(42)
	r.Gauge(MWorkers).Set(4)
	h := r.HistogramWith("toy_seconds", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99)
	r.CounterVec(MObsHTTPRequests, "route").With(`we"ird\la
bel`).Inc()

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE arc_evaluations_total counter",
		"arc_evaluations_total 42",
		"# TYPE workers gauge",
		"workers 4",
		"# TYPE toy_seconds histogram",
		`toy_seconds_bucket{le="1"} 1`,
		`toy_seconds_bucket{le="2"} 2`,
		`toy_seconds_bucket{le="+Inf"} 3`,
		"toy_seconds_count 3",
		// Backslash, quote and newline must arrive escaped.
		`route="we\"ird\\la\nbel"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1f") {
		t.Error("label separator leaked into the exposition")
	}
}

func TestEventLog(t *testing.T) {
	var buf bytes.Buffer
	base := time.Unix(1700000000, 0)
	n := 0
	log := NewEventLogWithClock(&buf, func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Second)
	})
	r := NewRegistry()
	log.AttachCounter(r.Counter(MEventsEmitted))
	log.Emit("analysis", map[string]any{"mode": "Iterative", "passes": 3})
	log.Emit("pass", nil)
	if log.Seq() != 2 {
		t.Errorf("seq = %d, want 2", log.Seq())
	}
	if got := r.Counter(MEventsEmitted).Value(); got != 2 {
		t.Errorf("attached counter = %d, want 2", got)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 JSONL lines, got %d: %q", len(lines), buf.String())
	}
	var rec struct {
		Seq    int64          `json:"seq"`
		TS     time.Time      `json:"ts"`
		Event  string         `json:"event"`
		Fields map[string]any `json:"fields"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line does not parse: %v", err)
	}
	if rec.Seq != 1 || rec.Event != "analysis" || rec.Fields["mode"] != "Iterative" {
		t.Errorf("unexpected record: %+v", rec)
	}

	// Nil event log is inert.
	var nilLog *EventLog
	nilLog.Emit("x", nil)
	nilLog.AttachCounter(nil)
}

func TestEventLogConcurrent(t *testing.T) {
	var buf bytes.Buffer
	log := NewEventLog(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				log.Emit("tick", map[string]any{"g": g, "i": i})
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("want 400 lines, got %d", len(lines))
	}
	for _, line := range lines {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("interleaved write corrupted a line: %v", err)
		}
	}
}

func TestRegisterAllCoversVocabulary(t *testing.T) {
	r := NewRegistry()
	RegisterAll(r)
	names := map[string]bool{}
	for _, n := range r.Names() {
		names[n] = true
	}
	for _, def := range AllMetrics() {
		if !names[def.Name] {
			t.Errorf("RegisterAll did not register %q", def.Name)
		}
	}
	// Every registered family must also appear in the Prometheus
	// exposition, even with zero samples.
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, def := range AllMetrics() {
		if !strings.Contains(out, "# TYPE "+def.Name+" "+def.Kind) {
			t.Errorf("/metrics missing family %q (%s)", def.Name, def.Kind)
		}
	}
	// Duration histograms must be on the duration grid.
	h := r.HistogramWith(MArcEvalDuration, nil)
	bounds, _ := h.Buckets()
	if len(bounds) != len(DurationBounds) || bounds[0] != DurationBounds[0] {
		t.Errorf("duration metric on wrong grid: %v", bounds)
	}
}
