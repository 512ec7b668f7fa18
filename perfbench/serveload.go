package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"redi/internal/core"
	"redi/internal/dataset"
	"redi/internal/discovery"
	"redi/internal/expr"
	"redi/internal/obs"
	"redi/internal/rng"
	"redi/internal/serve"
	"redi/internal/synth"
	"redi/internal/trace"
)

// request is one generated API call.
type request struct {
	rec serve.Record
	// kind groups latencies: audit, query, tailor, discovery, ingest or
	// stats. label is the fold label of its trace: the kind, except
	// "query-select" for selects.
	kind, label string
	// id indexes the distinct request whose responses must repeat byte
	// for byte; -1 where the response depends on concurrent ingests.
	id int
}

// population generates rows of the synth population with 2% MAR nulls on
// f0 (boosted for race=black), round-tripped through CSV so the rows the
// service holds are exactly what `redi serve` loads from an exported seed
// file.
func population(rows int, r *rng.RNG) (*dataset.Dataset, error) {
	p := synth.Generate(synth.DefaultPopulation(rows), r.Split())
	d := synth.InjectMissing(p.Data, synth.MissingConfig{
		Attr: "f0", Rate: 0.02, Mech: synth.MAR, CondAttr: "race", CondValue: "black",
	}, r.Split())
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return dataset.ReadCSV(&buf, d.Schema())
}

// schemaSpec renders a schema in `redi -schema` syntax.
func schemaSpec(s *dataset.Schema) string {
	var parts []string
	for _, a := range s.Attrs() {
		kind := "cat"
		if a.Kind == dataset.Numeric {
			kind = "num"
		}
		parts = append(parts, a.Name+":"+kind+":"+a.Role.String())
	}
	return strings.Join(parts, ",")
}

// pools holds the distinct requests of each kind generated for a resident
// table. Audit thresholds are fractions of the row count, so some audits
// find MUPs (the smallest race×sex group holds about 3%) and some do not.
type pools struct {
	audit, count, sel, discovery, tailor []request
	stats                                request
}

func genPools(d *dataset.Dataset, r *rng.RNG) pools {
	var p pools
	rows := d.NumRows()
	races := []string{"white", "black", "hispanic", "asian"}
	sexes := []string{"F", "M"}
	for _, frac := range []float64{0.0005, 0.002, 0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.2, 0.3} {
		for _, maxNull := range []float64{0.02, 0.04, 0.06, 0.1} {
			p.audit = append(p.audit, getReq("audit", "audit",
				fmt.Sprintf("/audit?threshold=%d&maxnull=%g", max(1, int(frac*float64(rows))), maxNull)))
		}
	}
	num := func(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }
	templates := []func() string{
		func() string { return fmt.Sprintf("race = '%s' and f0 > %.2f", races[r.Intn(4)], num(-1, 1)) },
		func() string {
			a := num(-2, 1)
			return fmt.Sprintf("sex = '%s' and f1 between %.2f and %.2f", sexes[r.Intn(2)], a, a+num(0.2, 2))
		},
		func() string { return fmt.Sprintf("f2 < %.2f or label = 'pos'", num(-1, 1)) },
		func() string { return fmt.Sprintf("race in ('black', 'asian') and f3 > %.2f", num(-1, 1)) },
		func() string { return fmt.Sprintf("f0 is null and race = '%s'", races[r.Intn(4)]) },
		func() string { return fmt.Sprintf("not (sex = 'M') and f1 <= %.2f and label != 'neg'", num(-1, 1)) },
	}
	for i := 0; i < 36; i++ {
		p.count = append(p.count, queryReq(templates[i%len(templates)](), "count"))
	}
	// Selects: one template, three bands per feature, each spanning 0.75%
	// of the feature's values between empirical quantiles, so that every
	// select returns about the same number of rows whatever the seed's
	// group effects.
	for i := 0; i < 12; i++ {
		vals, _ := d.Numeric(fmt.Sprintf("f%d", i%4))
		sort.Float64s(vals)
		lo := int(num(0.3, 0.7) * float64(len(vals)))
		hi := min(len(vals)-1, lo+len(vals)*3/400)
		e := fmt.Sprintf("f%d between %g and %g", i%4, vals[lo], vals[hi])
		p.sel = append(p.sel, queryReq(e, "select"))
	}
	for i := 0; i < 12; i++ {
		var vals []string
		switch i % 3 {
		case 0: // resident ids: full containment in the id column
			for k := 100; k > 0; k-- {
				vals = append(vals, fmt.Sprintf("p%06d", r.Intn(rows)))
			}
		case 1: // a race domain padded with foreign values
			vals = append(vals, races[:1+r.Intn(4)]...)
			for k := r.Intn(4); k > 0; k-- {
				vals = append(vals, fmt.Sprintf("other%d", r.Intn(100)))
			}
		default: // labels and sexes mixed
			vals = append(vals, "pos", "neg", sexes[r.Intn(2)])
		}
		thr := []float64{0.5, 0.7, 0.9}[r.Intn(3)]
		p.discovery = append(p.discovery, postReq("discovery", "/discovery",
			map[string]any{"values": vals, "threshold": thr}))
	}
	// Three fixed needs, from common and rare groups, so tailoring costs
	// about the same for every seed; each request draws with its own seed.
	needs := []map[string]int{
		{"race=black;sex=F": 40, "race=hispanic;sex=M": 40},
		{"race=white;sex=M": 60, "race=asian;sex=F": 20},
		{"race=black;sex=M": 30, "race=white;sex=F": 30, "race=hispanic;sex=F": 30},
	}
	for i := 0; i < 12; i++ {
		p.tailor = append(p.tailor, postReq("tailor", "/tailor",
			map[string]any{"need": needs[i%len(needs)], "seed": 1 + r.Uint64n(1<<20)}))
	}
	p.stats = getReq("stats", "stats", "/stats")
	return p
}

// pick returns n requests drawn from pool in shuffled rounds, so every
// distinct request is used equally often (within one) whatever the seed.
func pick(pool []request, n int, r *rng.RNG) []request {
	var out []request
	for len(out) < n {
		round := append([]request(nil), pool...)
		r.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		out = append(out, round[:min(len(round), n-len(out))]...)
	}
	return out
}

func getReq(kind, label, path string) request {
	return request{rec: serve.Record{Method: http.MethodGet, Path: path}, kind: kind, label: label}
}

func queryReq(e, mode string) request {
	label := "query"
	if mode == "select" {
		label = "query-select"
	}
	return getReq("query", label, "/query?e="+url.QueryEscape(e)+"&mode="+mode)
}

func postReq(kind, path string, body any) request {
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // maps of strings and numbers always marshal
	}
	return request{rec: serve.Record{Method: http.MethodPost, Path: path, Body: string(b)}, kind: kind, label: kind}
}

// respWriter is a reusable in-memory http.ResponseWriter.
type respWriter struct {
	code int
	hdr  http.Header
	buf  bytes.Buffer
}

func newRespWriter() *respWriter { return &respWriter{hdr: http.Header{}} }

func (w *respWriter) Header() http.Header         { return w.hdr }
func (w *respWriter) WriteHeader(code int)        { w.code = code }
func (w *respWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }

// call sends one request through the handler in process and returns its
// latency; the status and body are left in w.
func call(h http.Handler, req request, w *respWriter) (time.Duration, error) {
	var body io.Reader = http.NoBody
	if req.rec.Body != "" {
		body = strings.NewReader(req.rec.Body)
	}
	hr, err := http.NewRequest(req.rec.Method, "http://redi.bench"+req.rec.Path, body)
	if err != nil {
		return 0, fmt.Errorf("building %s %s: %w", req.rec.Method, req.rec.Path, err)
	}
	w.code = http.StatusOK
	w.buf.Reset()
	clear(w.hdr)
	start := obs.Now()
	h.ServeHTTP(w, hr)
	return obs.Now().Sub(start), nil
}

// serveConfig is the service configuration of every serve workload: one
// worker per client's share of the CPUs, and request tracing only in the
// traced phase.
func serveConfig(cfg config, traced bool, reg *obs.Registry) serve.Config {
	c := serve.Config{
		StoreConfig: serve.StoreConfig{Workers: max(1, cfg.workers/cfg.clients), Obs: reg},
		TraceBuffer: -1,
	}
	if traced {
		c.TraceBuffer = 256
	}
	return c
}

// traceLabel is the fold label of a recorded request trace.
func traceLabel(t *trace.Trace) string {
	if t.Name == "query" && strings.Contains(t.Path, "mode=select") {
		return "query-select"
	}
	return t.Name
}

// checker is the serve workloads' correctness gate. It checks statuses,
// keeps a digest of the first response to each distinct request and
// compares every repeat against it, counting failures into res. It is safe
// for concurrent use: it writes res only under mu, and the workloads write
// res themselves only while no client runs.
type checker struct {
	mu       sync.Mutex
	res      *result
	seed     maphash.Seed
	first    map[int]uint64
	rejected int
}

func newChecker(res *result) *checker {
	return &checker{res: res, seed: maphash.MakeSeed(), first: map[int]uint64{}}
}

// response checks one response.
func (c *checker) response(req request, code int, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if code != http.StatusOK {
		if code == http.StatusTooManyRequests {
			c.rejected++
		}
		c.res.fail("%s %s: status %d: %.200s", req.rec.Method, req.rec.Path, code, body)
		return
	}
	if req.id < 0 {
		return
	}
	d := maphash.Bytes(c.seed, body)
	if prev, ok := c.first[req.id]; !ok {
		c.first[req.id] = d
	} else if prev != d {
		c.res.fail("%s %s: response differs from its first occurrence", req.rec.Method, req.rec.Path)
	}
}

// send runs one request and gates its response; corrupt, when set, may
// alter the body first.
func send(h http.Handler, req request, w *respWriter, chk *checker, cfg config) (time.Duration, error) {
	d, err := call(h, req, w)
	if err != nil {
		return 0, err
	}
	body := w.buf.Bytes()
	if cfg.corrupt != nil {
		body = cfg.corrupt(req.kind, body)
	}
	chk.response(req, w.code, body)
	return d, nil
}

// closedLoop runs one goroutine per client; each sends its next request
// only after the previous reply, until body returns, and stamps its samples
// with offsets from start. It returns once every client has finished.
func closedLoop(clients int, body func(client int, start time.Time) ([]sample, error)) (window, error) {
	start := obs.Now()
	out := make([][]sample, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c], errs[c] = body(c, start)
		}(c)
	}
	wg.Wait()
	p := window{elapsed: obs.Now().Sub(start)}
	for c := range out {
		if errs[c] != nil {
			return p, errs[c]
		}
		p.samples = append(p.samples, out[c]...)
	}
	return p, nil
}

// exactPass runs reqs one after another on a traced service whose
// registry is reg, tallying each request's counter deltas and the summed
// attributes of its span tree by kind. Run sequentially, every tally is a
// pure function of the seed.
func exactPass(svc *serve.Service, reg *obs.Registry, reqs []request, res *result, chk *checker, cfg config) error {
	obs.Enable(reg)
	defer obs.Enable(nil)
	w := newRespWriter()
	for _, req := range reqs {
		before := reg.CounterValues()
		if _, err := send(svc, req, w, chk, cfg); err != nil {
			return err
		}
		delta := obs.DeltaCounters(before, reg.CounterValues())
		ts := svc.Recorder().Traces()
		last := ts[len(ts)-1]
		spanAttrs(last.Root(), delta)
		if v, ok := delta["span.audit.completeness.rows"]; ok {
			delta["completeness.rows"] = v
		}
		res.addExact(req.label, delta)
		res.attempted++
	}
	return nil
}

// spanAttrs adds every attribute of the tree to m as span.<name>.<key>.
func spanAttrs(s *trace.Span, m map[string]int64) {
	for _, a := range s.Attrs() {
		m["span."+s.Name()+"."+a.Key] += a.Val
	}
	for _, c := range s.Children() {
		spanAttrs(c, m)
	}
}

// oracle computes the response a request must get from a cold library
// call over a dataset: core.Audit, a freshly compiled predicate, a freshly
// built LSH index, or a fresh group index.
type oracle struct {
	d    *dataset.Dataset
	sens []string
	lsh  *discovery.IncrementalLSH
}

// Wire forms of serve's responses, field for field.
type auditResponse struct {
	Satisfied bool          `json:"satisfied"`
	Results   []auditResult `json:"results"`
}

type auditResult struct {
	Requirement string  `json:"requirement"`
	Satisfied   bool    `json:"satisfied"`
	Score       float64 `json:"score"`
	Details     string  `json:"details"`
}

type discoveryMatch struct {
	Ref   string  `json:"ref"`
	Score float64 `json:"score"`
}

func (o *oracle) expect(req request) ([]byte, error) {
	u, err := url.Parse(req.rec.Path)
	if err != nil {
		return nil, err
	}
	q := u.Query()
	var v any
	switch u.Path {
	case "/audit":
		var threshold int
		var maxNull float64
		if _, err := fmt.Sscan(q.Get("threshold"), &threshold); err != nil {
			return nil, err
		}
		if _, err := fmt.Sscan(q.Get("maxnull"), &maxNull); err != nil {
			return nil, err
		}
		rep := core.Audit(o.d, []core.Requirement{
			core.CoverageRequirement{Attrs: o.sens, Threshold: threshold},
			core.CompletenessRequirement{Sensitive: o.sens, MaxNullRate: maxNull},
		})
		resp := auditResponse{Satisfied: rep.Satisfied()}
		for _, r := range rep.Results {
			resp.Results = append(resp.Results, auditResult{r.Requirement, r.Satisfied, r.Score, r.Details})
		}
		v = resp
	case "/query":
		cp, err := expr.Compile(q.Get("e"), o.d)
		if err != nil {
			return nil, err
		}
		if q.Get("mode") == "select" {
			var csv strings.Builder
			if err := cp.Select().WriteCSV(&csv); err != nil {
				return nil, err
			}
			v = map[string]string{"csv": csv.String()}
		} else {
			v = map[string]int{"count": cp.CountFast()}
		}
	case "/discovery":
		var body struct {
			Values    []string `json:"values"`
			Threshold float64  `json:"threshold"`
		}
		if err := json.Unmarshal([]byte(req.rec.Body), &body); err != nil {
			return nil, err
		}
		query := map[string]bool{}
		for _, s := range body.Values {
			query[s] = true
		}
		resp := struct {
			Matches []discoveryMatch `json:"matches"`
		}{Matches: []discoveryMatch{}}
		for _, m := range o.index().Query(query, body.Threshold) {
			resp.Matches = append(resp.Matches, discoveryMatch{m.Ref.String(), m.Score})
		}
		v = resp
	case "/stats":
		v = serve.Stats{
			Name:       "resident",
			Rows:       o.d.NumRows(),
			Groups:     o.d.GroupBy(o.sens...).NumGroups(),
			Sensitive:  o.sens,
			LSHColumns: o.index().NumColumns(),
			Threshold:  10,
		}
	default:
		return nil, fmt.Errorf("no oracle for %s", u.Path)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// index builds, once, an LSH index over every categorical column.
func (o *oracle) index() *discovery.IncrementalLSH {
	if o.lsh != nil {
		return o.lsh
	}
	lsh, err := discovery.NewIncrementalLSH(128)
	if err != nil {
		panic(err) // 128 is a valid signature width
	}
	for _, a := range o.d.Schema().Attrs() {
		if a.Kind == dataset.Categorical {
			_, dict := o.d.CodesRange(a.Name, 0, 0)
			lsh.Upsert(discovery.ColumnRef{Table: "resident", Column: a.Name}, dict)
		}
	}
	o.lsh = lsh
	return lsh
}
