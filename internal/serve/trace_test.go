package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"redi/internal/dataset"
	"redi/internal/rng"
)

func readTestLog(t *testing.T) []Record {
	t.Helper()
	f, err := os.Open("testdata/replay.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadLog(f)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func loadSeedCSV(t *testing.T) *dataset.Dataset {
	t.Helper()
	f, err := os.Open("testdata/seed.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := dataset.ReadCSV(f, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTraceDetAcrossWorkers is the tracing layer's determinism contract:
// a randomized mix of audit, query, discovery, ingest, and tailor
// requests is driven sequentially against services at worker budgets 1,
// 2, and 8, and every recorded span tree's deterministic projection —
// names, nesting, ordered attributes — must be byte-identical across
// budgets. Wall-clock timings are excluded from the projection by
// construction, so nothing needs masking.
func TestTraceDetAcrossWorkers(t *testing.T) {
	budgets := []int{1, 2, 8}
	svcs := make([]*Service, len(budgets))
	for i, w := range budgets {
		svc, err := NewService(makeBatch(11, 250), Config{
			StoreConfig: StoreConfig{Threshold: 4, Workers: w},
			TraceBuffer: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		svcs[i] = svc
	}
	queries := []string{
		"age between 20 and 50",
		"race = 'black' and income > 40000",
		"sex = 'F' or age > 55",
	}
	r := rng.New(99)
	nreq := 0
	for step := 0; step < 36; step++ {
		var method, path, body string
		switch r.Intn(5) {
		case 0:
			method, path = "GET", "/audit?threshold=4&maxnull=0.3"
		case 1:
			method, path = "GET", "/query?e="+url.QueryEscape(queries[r.Intn(len(queries))])
		case 2:
			method, path, body = "POST", "/discovery", `{"values":["black","white","asian"],"threshold":0.3}`
		case 3:
			enc, err := json.Marshal(ingestRequest{CSV: csvOf(t, makeBatch(uint64(1000+step), 30))})
			if err != nil {
				t.Fatal(err)
			}
			method, path, body = "POST", "/ingest", string(enc)
		case 4:
			method, path, body = "POST", "/tailor", `{"need":{"race=black;sex=F":5},"seed":3}`
		}
		nreq++
		for i, svc := range svcs {
			if code, resp := doReq(t, svc, method, path, body); code != http.StatusOK {
				t.Fatalf("step %d workers %d: %s %s -> %d: %s", step, budgets[i], method, path, code, resp)
			}
		}
	}
	base := svcs[0].Recorder().Traces()
	if len(base) != nreq {
		t.Fatalf("recorder holds %d traces, want %d", len(base), nreq)
	}
	for i, svc := range svcs[1:] {
		got := svc.Recorder().Traces()
		if len(got) != len(base) {
			t.Fatalf("workers %d recorded %d traces, workers 1 recorded %d", budgets[i+1], len(got), len(base))
		}
		for k := range base {
			if base[k].ID != got[k].ID || base[k].Name != got[k].Name || base[k].Path != got[k].Path {
				t.Fatalf("trace %d metadata differs at workers %d: %+v vs %+v", k, budgets[i+1], got[k], base[k])
			}
			a, b := base[k].Root().DetJSON(), got[k].Root().DetJSON()
			if !bytes.Equal(a, b) {
				t.Fatalf("trace %d (%s %s) det projection differs at workers %d:\n%s\nvs\n%s",
					k, base[k].Method, base[k].Path, budgets[i+1], a, b)
			}
		}
	}
}

// TestDebugRequestEndpoints drives the flight-recorder HTTP surface:
// listing, single-trace fetch in every format, the slow log, and the
// error paths.
func TestDebugRequestEndpoints(t *testing.T) {
	svc, err := NewService(makeBatch(21, 120), Config{
		StoreConfig:        StoreConfig{Threshold: 4, Workers: 2},
		TraceBuffer:        16,
		SlowTraceThreshold: time.Nanosecond, // everything qualifies as slow
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if code, _ := doReq(t, svc, "GET", "/audit?threshold=4&maxnull=0.3", ""); code != http.StatusOK {
		t.Fatal("audit failed")
	}
	// Completeness is scored from the ingest-maintained tallies: the span
	// covers every attribute and reports no rows scanned.
	if det := svc.Recorder().Traces()[0].Root().DetString(); !strings.Contains(det, "\n  audit.completeness attrs_checked=4 rows=0 satisfied=") {
		t.Fatalf("served audit scanned rows for completeness:\n%s", det)
	}
	if code, _ := doReq(t, svc, "GET", "/stats", ""); code != http.StatusOK {
		t.Fatal("stats failed")
	}

	code, body := doReq(t, svc, "GET", "/debug/requests", "")
	if code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	var list struct {
		Enabled bool `json:"enabled"`
		Traces  []struct {
			ID    uint64 `json:"id"`
			Name  string `json:"name"`
			Spans int    `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if !list.Enabled || len(list.Traces) != 2 {
		t.Fatalf("list = %s", body)
	}
	if list.Traces[0].Name != "audit" || list.Traces[0].ID != 1 || list.Traces[0].Spans < 4 {
		t.Fatalf("audit trace entry = %+v", list.Traces[0])
	}

	// det (default) carries attrs but no timings; full carries both.
	_, det := doReq(t, svc, "GET", "/debug/requests/1", "")
	if !strings.Contains(det, `"name":"audit"`) || !strings.Contains(det, "coverage.mup_walk") {
		t.Fatalf("det fetch = %s", det)
	}
	if strings.Contains(det, "dur_us") {
		t.Fatalf("det projection leaked timings: %s", det)
	}
	_, full := doReq(t, svc, "GET", "/debug/requests/1?format=full", "")
	if !strings.Contains(full, "dur_us") {
		t.Fatalf("full fetch has no timings: %s", full)
	}
	_, chrome := doReq(t, svc, "GET", "/debug/requests/1?format=chrome", "")
	var ch struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int64  `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(chrome), &ch); err != nil {
		t.Fatalf("chrome export unparsable: %v in %s", err, chrome)
	}
	if len(ch.TraceEvents) < 4 || ch.TraceEvents[0].Ph != "X" || ch.TraceEvents[0].Pid != 1 {
		t.Fatalf("chrome export = %s", chrome)
	}

	// Both requests met the 1ns slow threshold.
	_, slow := doReq(t, svc, "GET", "/debug/requests/slow", "")
	var slowResp struct {
		ThresholdUS int64 `json:"threshold_us"`
		Traces      []struct {
			DurationUS int64 `json:"duration_us"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(slow), &slowResp); err != nil {
		t.Fatal(err)
	}
	if len(slowResp.Traces) != 2 {
		t.Fatalf("slow log = %s", slow)
	}

	if code, _ := doReq(t, svc, "GET", "/debug/requests/notanumber", ""); code != http.StatusBadRequest {
		t.Fatalf("bad id status %d", code)
	}
	if code, _ := doReq(t, svc, "GET", "/debug/requests/999", ""); code != http.StatusNotFound {
		t.Fatalf("missing id status %d", code)
	}
	if code, _ := doReq(t, svc, "GET", "/debug/requests/1?format=wat", ""); code != http.StatusBadRequest {
		t.Fatalf("bad format status %d", code)
	}
}

// TestTracingDisabled pins the disabled state: a negative buffer turns
// the recorder off, requests still succeed, and /debug/requests reports
// enabled=false.
func TestTracingDisabled(t *testing.T) {
	svc, err := NewService(makeBatch(23, 80), Config{
		StoreConfig: StoreConfig{Threshold: 4},
		TraceBuffer: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Recorder() != nil {
		t.Fatal("negative TraceBuffer should disable the recorder")
	}
	if code, _ := doReq(t, svc, "GET", "/audit?threshold=4&maxnull=0.5", ""); code != http.StatusOK {
		t.Fatal("audit failed with tracing disabled")
	}
	code, body := doReq(t, svc, "GET", "/debug/requests", "")
	if code != http.StatusOK || !strings.Contains(body, `"enabled":false`) {
		t.Fatalf("disabled listing = %d %s", code, body)
	}
}

// TestStatsMetricsBodiesUnderIngest validates the /stats and /metrics
// response bodies — not just status codes — while a writer streams
// ingest batches; under -race this doubles as a locking check on the
// scheduler gauges and the build-info prelude.
func TestStatsMetricsBodiesUnderIngest(t *testing.T) {
	svc := newTestService(t, makeBatch(13, 200), 2)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			code, body := doReq(t, svc, "GET", "/stats", "")
			if code != http.StatusOK {
				t.Errorf("/stats status %d: %s", code, body)
				return
			}
			var st Stats
			if err := json.Unmarshal([]byte(body), &st); err != nil {
				t.Errorf("/stats unparsable: %v in %s", err, body)
				return
			}
			if st.Rows < 200 || st.Groups <= 0 || st.Name != "resident" {
				t.Errorf("implausible stats %+v", st)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			code, body := doReq(t, svc, "GET", "/metrics", "")
			if code != http.StatusOK {
				t.Errorf("/metrics status %d", code)
				return
			}
			for _, want := range []string{
				"# TYPE redi_build_info gauge",
				`redi_build_info{version="` + Version + `"`,
				"# TYPE redi_serve_queue_depth gauge",
				"# TYPE redi_serve_busy_slots gauge",
				"redi_serve_rows_ingested",
			} {
				if !strings.Contains(body, want) {
					t.Errorf("/metrics missing %q:\n%s", want, body)
					return
				}
			}
		}
	}()
	for i := 0; i < 8; i++ {
		enc, err := json.Marshal(ingestRequest{CSV: csvOf(t, makeBatch(uint64(700+i), 40))})
		if err != nil {
			t.Fatal(err)
		}
		if code, resp := doReq(t, svc, "POST", "/ingest", string(enc)); code != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %s", i, code, resp)
		}
	}
	close(done)
	wg.Wait()
	// The busy-slot gauge sampled during our own /metrics scrape counts
	// at least that scrape... /metrics bypasses admission, so the final
	// quiescent read reports an empty scheduler.
	_, body := doReq(t, svc, "GET", "/metrics", "")
	if !strings.Contains(body, "redi_serve_queue_depth 0") || !strings.Contains(body, "redi_serve_busy_slots 0") {
		t.Fatalf("quiescent scheduler gauges not zero:\n%s", body)
	}
	if v := svc.reg.Report().Counters["serve.rows_ingested"]; v != 320 {
		t.Fatalf("rows_ingested = %d, want 320", v)
	}
}

// TestReplayTwiceIncludesDebug replays the checked-in log (which now
// fetches /debug/requests) twice against identically seeded services:
// the outputs — including the det trace projections — must be
// byte-identical, proving the debug surface is replay-safe.
func TestReplayTwiceIncludesDebug(t *testing.T) {
	recs := readTestLog(t)
	hasDebug := false
	for _, rec := range recs {
		if strings.HasPrefix(rec.Path, "/debug/requests") {
			hasDebug = true
		}
	}
	if !hasDebug {
		t.Fatal("replay log no longer exercises /debug/requests")
	}
	run := func() string {
		svc := newTestService(t, loadSeedCSV(t), 2)
		var buf bytes.Buffer
		if err := Replay(svc, recs, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replay with debug fetches differs between runs:\n%s\n----\n%s", a, b)
	}
	if !strings.Contains(a, `"enabled":true`) {
		t.Fatalf("debug listing missing from replay output:\n%s", a)
	}
	if !strings.Contains(a, "coverage.mup_walk") {
		t.Fatalf("audit trace spans missing from replayed det fetch:\n%s", a)
	}
	if strings.Contains(a, "dur_us") {
		t.Fatalf("timings leaked into replay output:\n%s", a)
	}
}
