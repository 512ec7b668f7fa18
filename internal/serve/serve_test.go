package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"redi/internal/core"
	"redi/internal/dataset"
	"redi/internal/discovery"
	"redi/internal/expr"
	"redi/internal/rng"
)

func testSchema() *dataset.Schema {
	return dataset.NewSchema(
		dataset.Attribute{Name: "race", Kind: dataset.Categorical, Role: dataset.Sensitive},
		dataset.Attribute{Name: "sex", Kind: dataset.Categorical, Role: dataset.Sensitive},
		dataset.Attribute{Name: "age", Kind: dataset.Numeric},
		dataset.Attribute{Name: "income", Kind: dataset.Numeric},
	)
}

// makeBatch generates rows with a long-tailed race domain (so ingests keep
// growing the dictionaries, and new group keys splice into the middle of
// the canonical gid order) and nulls in a sensitive column (race: rows in
// no group) and in two non-sensitive ones (age, income). The long-tail
// groups are tiny, so their null rates hit exact ties such as 1/1 = 2/2.
func makeBatch(seed uint64, n int) *dataset.Dataset {
	r := rng.New(seed)
	races := []string{"black", "white", "asian", "hispanic"}
	sexes := []string{"F", "M"}
	d := dataset.New(testSchema())
	for i := 0; i < n; i++ {
		race := dataset.Cat(races[r.Intn(len(races))])
		switch r.Intn(16) {
		case 0:
			race = dataset.Cat(fmt.Sprintf("race%02d", r.Intn(24)))
		case 1:
			race = dataset.NullValue(dataset.Categorical)
		}
		age := dataset.Num(float64(18 + r.Intn(60)))
		if r.Intn(20) == 0 {
			age = dataset.NullValue(dataset.Numeric)
		}
		income := dataset.Num(float64(20000 + r.Intn(80000)))
		if r.Intn(15) == 0 {
			income = dataset.NullValue(dataset.Numeric)
		}
		d.MustAppendRow(race, dataset.Cat(sexes[r.Intn(2)]), age, income)
	}
	return d
}

// coldTallies recounts the completeness tallies of d from scratch: a fresh
// group index and a per-attribute null scan.
func coldTallies(d *dataset.Dataset, sens []string) core.NullTallies {
	t := core.NullTallies{Rows: d.NumRows(), Attrs: d.Schema().Names(), Groups: d.GroupBy(sens...)}
	for _, a := range t.Attrs {
		miss := make([]int, t.Groups.NumGroups())
		t.Nulls = append(t.Nulls, d.NullsRange(a, 0, d.NumRows(), t.Groups.ByRow, miss))
		t.Misses = append(t.Misses, miss)
	}
	return t
}

// worstTies counts the (attribute, group) null rates equal to the worst
// one — more than one means the scorer's tie-break decides Details.
func worstTies(t core.NullTallies) int {
	worst, ties := 0.0, 0
	for i := range t.Attrs {
		for gid, n := range t.Groups.Counts {
			switch frac := float64(t.Misses[i][gid]) / float64(n); {
			case frac > worst:
				worst, ties = frac, 1
			case frac == worst:
				ties++
			}
		}
	}
	return ties
}

func csvOf(t *testing.T, d *dataset.Dataset) string {
	t.Helper()
	var sb strings.Builder
	if err := d.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func doReq(t *testing.T, h http.Handler, method, path, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, "http://test"+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rw := newRecorder()
	h.ServeHTTP(rw, req)
	return rw.code, rw.buf.String()
}

func newTestService(t *testing.T, d *dataset.Dataset, workers int) *Service {
	t.Helper()
	svc, err := NewService(d, Config{
		StoreConfig: StoreConfig{Threshold: 5, Workers: workers},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// TestServeEquivalence is the serving layer's incremental ≡ rebuild
// contract end to end: after every ingest batch, the /audit, /query, and
// /discovery responses of services running at worker budgets 1, 2, and 8
// are byte-identical to each other and match a cold rebuild (core.Audit
// and CheckPartitioned at every budget, expr on the accumulated rows, a
// one-shot LSH index over the final dictionaries). The store's
// completeness tallies must equal a cold recount, and the schedule must
// exercise what makes them hard: rows in no group, gid renumbering by new
// keys after nulls were tallied, and tied worst null rates.
func TestServeEquivalence(t *testing.T) {
	seed := makeBatch(1, 200)
	mirror := seed.Clone()
	budgets := []int{1, 2, 8}
	svcs := make([]*Service, len(budgets))
	for i, w := range budgets {
		svcs[i] = newTestService(t, seed.Clone(), w)
	}
	sens := []string{"race", "sex"}
	queries := []string{"age between 20 and 40", "race = 'black' and income > 50000"}
	renumbered, tied := 0, 0

	for batchNo := 0; batchNo < 8; batchNo++ {
		before := mirror.GroupBy(sens...).Keys()
		batch := makeBatch(uint64(100+batchNo), 60+13*batchNo)
		body, err := json.Marshal(ingestRequest{CSV: csvOf(t, batch)})
		if err != nil {
			t.Fatal(err)
		}
		for _, svc := range svcs {
			if code, resp := doReq(t, svc, "POST", "/ingest", string(body)); code != http.StatusOK {
				t.Fatalf("batch %d: ingest status %d: %s", batchNo, code, resp)
			}
		}
		if err := mirror.AppendDataset(batch); err != nil {
			t.Fatal(err)
		}

		// Audit: identical across worker budgets, equal to a cold rebuild.
		_, want := doReq(t, svcs[0], "GET", "/audit?threshold=5&maxnull=0.2", "")
		for i, svc := range svcs[1:] {
			if _, got := doReq(t, svc, "GET", "/audit?threshold=5&maxnull=0.2", ""); got != want {
				t.Fatalf("batch %d: audit differs at workers %d:\n%s\nvs\n%s", batchNo, budgets[i+1], got, want)
			}
		}
		cold := core.Audit(mirror, []core.Requirement{
			core.CoverageRequirement{Attrs: sens, Threshold: 5},
			core.CompletenessRequirement{Sensitive: sens, MaxNullRate: 0.2},
		})
		coldResp := auditResponse{Satisfied: cold.Satisfied()}
		for _, res := range cold.Results {
			coldResp.Results = append(coldResp.Results, auditResult{
				Requirement: res.Requirement, Satisfied: res.Satisfied,
				Score: res.Score, Details: res.Details,
			})
		}
		coldJSON, err := json.Marshal(coldResp)
		if err != nil {
			t.Fatal(err)
		}
		if want != string(coldJSON)+"\n" {
			t.Fatalf("batch %d: served audit differs from cold rebuild:\n%s\nvs\n%s", batchNo, want, coldJSON)
		}
		comp := core.CompletenessRequirement{Sensitive: sens, MaxNullRate: 0.2}
		for _, w := range budgets {
			if got := comp.CheckPartitioned(mirror.Partitions(64), w); got != cold.Results[1] {
				t.Fatalf("batch %d: CheckPartitioned at workers %d = %+v, cold %+v", batchNo, w, got, cold.Results[1])
			}
		}

		// The tallies behind the served audit equal a cold recount, and
		// the schedule reaches the cases that stress them.
		recount := coldTallies(mirror, sens)
		for i, svc := range svcs {
			st := svc.Store()
			if fmt.Sprint(st.nulls, st.miss) != fmt.Sprint(recount.Nulls, recount.Misses) {
				t.Fatalf("batch %d workers %d: tallies %v %v, cold recount %v %v",
					batchNo, budgets[i], st.nulls, st.miss, recount.Nulls, recount.Misses)
			}
		}
		after := recount.Groups.Keys()
		for gid, k := range before {
			if after[gid] != k {
				renumbered++
				break
			}
		}
		if worstTies(recount) > 1 {
			tied++
		}

		// Query: count and select match compiled predicates on the mirror.
		for _, q := range queries {
			path := "/query?e=" + url.QueryEscape(q)
			_, got := doReq(t, svcs[0], "GET", path, "")
			cp, err := expr.Compile(q, mirror)
			if err != nil {
				t.Fatal(err)
			}
			var resp struct {
				Count int `json:"count"`
			}
			if err := json.Unmarshal([]byte(got), &resp); err != nil {
				t.Fatalf("batch %d: query %q: %v in %s", batchNo, q, err, got)
			}
			if resp.Count != cp.CountFast() {
				t.Fatalf("batch %d: query %q: served %d, cold %d", batchNo, q, resp.Count, cp.CountFast())
			}
			_, sel := doReq(t, svcs[0], "GET", path+"&mode=select", "")
			var selResp struct {
				CSV string `json:"csv"`
			}
			if err := json.Unmarshal([]byte(sel), &selResp); err != nil {
				t.Fatal(err)
			}
			if want := csvOf(t, cp.Select()); selResp.CSV != want {
				t.Fatalf("batch %d: query %q select differs from cold rebuild", batchNo, q)
			}
		}

		// Discovery: identical across budgets, equal to a one-shot index
		// over the mirror's final dictionaries.
		disc := `{"values":["black","white","asian","hispanic"],"threshold":0.3}`
		_, dwant := doReq(t, svcs[0], "POST", "/discovery", disc)
		for i, svc := range svcs[1:] {
			if _, got := doReq(t, svc, "POST", "/discovery", disc); got != dwant {
				t.Fatalf("batch %d: discovery differs at workers %d", batchNo, budgets[i+1])
			}
		}
		fresh, err := discovery.NewIncrementalLSH(128)
		if err != nil {
			t.Fatal(err)
		}
		for _, attr := range []string{"race", "sex"} {
			_, dict := mirror.Codes(attr)
			fresh.Upsert(discovery.ColumnRef{Table: "resident", Column: attr}, dict)
		}
		coldMatches := fresh.Query(map[string]bool{"black": true, "white": true, "asian": true, "hispanic": true}, 0.3)
		var dresp struct {
			Matches []discoveryMatch `json:"matches"`
		}
		if err := json.Unmarshal([]byte(dwant), &dresp); err != nil {
			t.Fatal(err)
		}
		if len(dresp.Matches) != len(coldMatches) {
			t.Fatalf("batch %d: discovery served %d matches, cold %d", batchNo, len(dresp.Matches), len(coldMatches))
		}
		for i, m := range coldMatches {
			if dresp.Matches[i].Ref != m.Ref.String() || dresp.Matches[i].Score != m.Score {
				t.Fatalf("batch %d: discovery match %d differs: %+v vs %+v", batchNo, i, dresp.Matches[i], m)
			}
		}
	}
	if renumbered == 0 || tied == 0 {
		t.Fatalf("schedule too tame: %d batches renumbered gids, %d had tied worst rates", renumbered, tied)
	}
	raceNulls := mirror.NullsRange("race", 0, mirror.NumRows(), nil, nil)
	ageNulls := mirror.NullsRange("age", 0, mirror.NumRows(), nil, nil)
	if raceNulls == 0 || ageNulls == 0 {
		t.Fatalf("schedule has %d race nulls and %d age nulls, want both > 0", raceNulls, ageNulls)
	}
}

// TestServeBadParams pins the handlers' 400 paths: malformed or
// out-of-range parameters are rejected before any work, including float
// spellings strconv accepts but no null-rate bound can be (NaN, ±Inf).
func TestServeBadParams(t *testing.T) {
	svc := newTestService(t, makeBatch(4, 100), 1)
	for _, path := range []string{
		"/audit?threshold=0",
		"/audit?threshold=-3",
		"/audit?threshold=x",
		"/audit?maxnull=-0.1",
		"/audit?maxnull=abc",
		"/audit?maxnull=NaN",
		"/audit?maxnull=nan",
		"/audit?maxnull=Inf",
		"/audit?maxnull=%2BInf",
		"/audit?maxnull=-Inf",
		"/query",
		"/query?e=age+%3E+1&mode=wat",
	} {
		if code, resp := doReq(t, svc, "GET", path, ""); code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400: %s", path, code, resp)
		}
	}
	if code, resp := doReq(t, svc, "POST", "/discovery", `{"values":["black"],"threshold":1.5}`); code != http.StatusBadRequest {
		t.Errorf("discovery threshold 1.5: status %d, want 400: %s", code, resp)
	}
}

// TestServeMaxNullDefault pins the service-level completeness bound: unset
// means core.DefaultMaxNullRate, zero is a real bound (no nulls
// tolerated), and invalid bounds fail at construction.
func TestServeMaxNullDefault(t *testing.T) {
	audit := func(cfg Config) core.CheckResult {
		t.Helper()
		cfg.StoreConfig = StoreConfig{Threshold: 3}
		svc, err := NewService(makeBatch(6, 120), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		code, body := doReq(t, svc, "GET", "/audit", "")
		if code != http.StatusOK {
			t.Fatalf("audit status %d: %s", code, body)
		}
		var resp auditResponse
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatal(err)
		}
		r := resp.Results[1]
		return core.CheckResult{Requirement: r.Requirement, Satisfied: r.Satisfied, Score: r.Score, Details: r.Details}
	}
	zero := 0.0
	if got := audit(Config{MaxNullRate: &zero}); got.Satisfied || !strings.HasSuffix(got.Details, "(max 0.0000)") {
		t.Fatalf("MaxNullRate 0 audited as %+v, want an unsatisfied bound of 0", got)
	}
	if got := audit(Config{}); !strings.HasSuffix(got.Details, fmt.Sprintf("(max %.4f)", core.DefaultMaxNullRate)) {
		t.Fatalf("unset MaxNullRate audited as %+v, want the default bound", got)
	}
	for _, bad := range []float64{-0.5, math.NaN(), math.Inf(1)} {
		if _, err := NewService(makeBatch(6, 10), Config{MaxNullRate: &bad}); err == nil {
			t.Fatalf("MaxNullRate %v accepted", bad)
		}
	}
}

// TestServeTailor pins determinism (same seed, same body) and that the
// collected rows meet every requested group count.
func TestServeTailor(t *testing.T) {
	svc := newTestService(t, makeBatch(3, 400), 2)
	body := `{"need":{"race=black;sex=F":25,"race=white;sex=M":10},"seed":42}`
	code, first := doReq(t, svc, "POST", "/tailor", body)
	if code != http.StatusOK {
		t.Fatalf("tailor status %d: %s", code, first)
	}
	if _, again := doReq(t, svc, "POST", "/tailor", body); again != first {
		t.Fatalf("tailor not deterministic:\n%s\nvs\n%s", first, again)
	}
	var resp tailorResponse
	if err := json.Unmarshal([]byte(first), &resp); err != nil {
		t.Fatal(err)
	}
	got, err := dataset.ReadCSV(strings.NewReader(resp.CSV), testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != resp.Rows {
		t.Fatalf("csv has %d rows, response says %d", got.NumRows(), resp.Rows)
	}
	counts := got.GroupBy("race", "sex")
	if c := counts.Count("race=black;sex=F"); c < 25 {
		t.Fatalf("black/F count %d < 25", c)
	}
	if c := counts.Count("race=white;sex=M"); c < 10 {
		t.Fatalf("white/M count %d < 10", c)
	}
	// A group absent from the resident data fails fast with 400.
	if code, resp := doReq(t, svc, "POST", "/tailor", `{"need":{"race=martian;sex=F":5},"seed":1}`); code != http.StatusBadRequest {
		t.Fatalf("absent group: status %d: %s", code, resp)
	}
}

// TestSchedulerFIFO drives the admission queue through a fully sequenced
// overflow: slots exhausted, dispatcher parked, queue filled, next arrival
// rejected, then FIFO draining.
func TestSchedulerFIFO(t *testing.T) {
	s := newScheduler(1, 2)
	defer s.close()
	rel0, ok := s.admit()
	if !ok {
		t.Fatal("first admit rejected")
	}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	spawn := func(id int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, ok := s.admit()
			if !ok {
				t.Errorf("queued request %d rejected", id)
				return
			}
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			rel()
		}()
	}
	waitFor := func(cond func() bool, what string) {
		for i := 0; i < 1e7; i++ {
			if cond() {
				return
			}
			runtime.Gosched()
		}
		t.Fatalf("timeout waiting for %s", what)
	}
	// b1 is dequeued by the dispatcher, which then parks on the full slot.
	spawn(1)
	waitFor(func() bool { return s.pending.Load() == 1 && len(s.queue) == 0 }, "dispatcher parked on b1")
	// b2 and b3 fill the depth-2 queue.
	spawn(2)
	waitFor(func() bool { return len(s.queue) == 1 }, "b2 queued")
	spawn(3)
	waitFor(func() bool { return len(s.queue) == 2 }, "b3 queued")
	// The queue is full and the dispatcher is parked: the next arrival is
	// rejected immediately.
	if _, ok := s.admit(); ok {
		t.Fatal("overflow admit was not rejected")
	}
	rel0()
	wg.Wait()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("admission order %v, want [1 2 3]", order)
	}
}

// TestServe429 exercises backpressure at the HTTP layer: with one slot held
// and no queue, the next request gets 429 and the rejection counter moves.
func TestServe429(t *testing.T) {
	svc, err := NewService(makeBatch(5, 50), Config{
		StoreConfig:   StoreConfig{Threshold: 3},
		MaxConcurrent: 1,
		QueueDepth:    -1, // unbuffered: at most one request parked at the dispatcher
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// With an unbuffered queue, admission requires the dispatcher to be
	// parked at its receive; retry until the goroutine has started up.
	var rel func()
	ok := false
	for i := 0; i < 1e7 && !ok; i++ {
		rel, ok = svc.sched.admit()
		runtime.Gosched()
	}
	if !ok {
		t.Fatal("manual admit rejected")
	}
	type result struct {
		code int
		body string
	}
	first := make(chan result, 1)
	go func() {
		code, body := doReq(t, svc, "GET", "/stats", "")
		first <- result{code, body}
	}()
	// Wait until the dispatcher holds the parked request; the rendezvous
	// queue is then empty and busy, so the next request must be rejected.
	for i := 0; i < 1e7 && svc.sched.pending.Load() != 1; i++ {
		runtime.Gosched()
	}
	if svc.sched.pending.Load() != 1 {
		t.Fatal("dispatcher never parked the first request")
	}
	if code, _ := doReq(t, svc, "GET", "/stats", ""); code != http.StatusTooManyRequests {
		t.Fatalf("second request got %d, want 429", code)
	}
	rel()
	if r := <-first; r.code != http.StatusOK {
		t.Fatalf("parked request got %d: %s", r.code, r.body)
	}
	if v := svc.reg.Report().RuntimeCounters["serve.rejected"]; v != 1 {
		t.Fatalf("serve.rejected = %d, want 1", v)
	}
}

// TestReplayDeterministic replays the checked-in request log against two
// freshly seeded services and requires byte-identical output — the
// end-to-end guarantee that no response leaks wall-clock or ordering
// nondeterminism.
func TestReplayDeterministic(t *testing.T) {
	f, err := os.Open("testdata/replay.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadLog(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty replay log")
	}
	run := func() string {
		sf, err := os.Open("testdata/seed.csv")
		if err != nil {
			t.Fatal(err)
		}
		defer sf.Close()
		d, err := dataset.ReadCSV(sf, testSchema())
		if err != nil {
			t.Fatal(err)
		}
		svc := newTestService(t, d, 2)
		var buf bytes.Buffer
		if err := Replay(svc, recs, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replay output differs between runs:\n%s\n----\n%s", a, b)
	}
	// Every API request in the log succeeds; only the final /nosuch 404s.
	for _, line := range strings.Split(a, "\n") {
		if line == "404" || strings.HasPrefix(line, "4") && len(line) == 3 || strings.HasPrefix(line, "5") && len(line) == 3 {
			if line != "404" {
				t.Fatalf("unexpected error status %s in replay:\n%s", line, a)
			}
		}
	}
	if !strings.Contains(a, "## GET /nosuch\n404\n") {
		t.Fatalf("missing 404 block for /nosuch:\n%s", a)
	}
}

func TestReadLogErrors(t *testing.T) {
	if _, err := ReadLog(strings.NewReader("{broken")); err == nil {
		t.Fatal("malformed line accepted")
	}
	if _, err := ReadLog(strings.NewReader(`{"path":"/x"}`)); err == nil {
		t.Fatal("record without method accepted")
	}
	recs, err := ReadLog(strings.NewReader("\n# comment\n" + `{"method":"GET","path":"/stats"}` + "\n"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("recs=%v err=%v", recs, err)
	}
}

// TestServeConcurrent hammers every read endpoint while a writer streams
// ingest batches; under -race this pins the locking discipline, and every
// response must be well-formed (200, never 5xx).
func TestServeConcurrent(t *testing.T) {
	svc := newTestService(t, makeBatch(7, 300), 2)
	done := make(chan struct{})
	var wg sync.WaitGroup
	paths := []struct{ method, path, body string }{
		{"GET", "/query?e=" + url.QueryEscape("age between 20 and 50"), ""},
		{"GET", "/audit?threshold=4&maxnull=0.3", ""},
		{"POST", "/discovery", `{"values":["black","white"],"threshold":0.3}`},
		{"GET", "/stats", ""},
		{"GET", "/metrics", ""},
	}
	for _, p := range paths {
		wg.Add(1)
		go func(method, path, body string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				code, resp := doReq(t, svc, method, path, body)
				if code != http.StatusOK {
					t.Errorf("%s %s: status %d: %s", method, path, code, resp)
					return
				}
			}
		}(p.method, p.path, p.body)
	}
	for i := 0; i < 8; i++ {
		batch := makeBatch(uint64(500+i), 40)
		body, err := json.Marshal(ingestRequest{CSV: csvOf(t, batch)})
		if err != nil {
			t.Fatal(err)
		}
		if code, resp := doReq(t, svc, "POST", "/ingest", string(body)); code != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %s", i, code, resp)
		}
	}
	close(done)
	wg.Wait()
	snap, err := svc.reg.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(snap), `"serve.rows_ingested": 320`) {
		t.Fatalf("rows_ingested counter wrong:\n%s", snap)
	}
}
