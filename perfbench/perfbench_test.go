package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"redi/internal/dataset"
	"redi/internal/serve"
)

// tiny is a seconds-long configuration of a workload at a small fraction
// of its size.
func tiny(t *testing.T, name string) (workload, config) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	cfg := configFor(w)
	cfg.seed = 7
	cfg.seconds = 300 * time.Millisecond
	cfg.scale = 0.01
	cfg.setupReps = 2
	cfg.workdir = t.TempDir()
	return w, cfg
}

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (e2e, layer []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
	}
	return e2e, layer
}

type printed struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runTiny runs a workload and parses the last line it prints.
func runTiny(t *testing.T, w workload, cfg config) (*result, printed) {
	t.Helper()
	res, err := w.run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	var out bytes.Buffer
	res.print(&out, cfg.trace)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var p printed
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		t.Fatalf("%s: last line is not the result: %v", w.name, err)
	}
	for _, l := range lines[:len(lines)-1] {
		if !strings.HasPrefix(l, "# ") {
			t.Errorf("%s: report line without the # prefix: %q", w.name, l)
		}
	}
	return res, p
}

// TestSmoke runs every workload untraced and traced at a tiny size: every
// output passes its gate and every declared metric is printed.
func TestSmoke(t *testing.T) {
	e2e, layer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, cfg := tiny(t, w.name)
			cfg.trace = traced
			_, p := runTiny(t, w, cfg)
			if !p.Correct || p.Failed != 0 || p.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, traced, p.Correct, p.Attempted, p.Failed)
			}
			want := e2e
			if traced {
				want = layer
			}
			for _, name := range want {
				if _, ok := p.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, traced, name)
				}
			}
			if len(p.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.name, traced, len(p.Metrics), len(want))
			}
		}
	}
}

// TestGateFires corrupts one response (for batch-colfile: one output
// digest) of each workload and expects the run to be reported incorrect.
func TestGateFires(t *testing.T) {
	cases := []struct{ workload, kind string }{
		{"serve-read-large", "audit"},
		{"serve-ingest-mix", "stats"},
		{"batch-colfile", "query"},
	}
	for _, c := range cases {
		w, cfg := tiny(t, c.workload)
		var done atomic.Bool
		cfg.corrupt = func(kind string, body []byte) []byte {
			if kind != c.kind || !done.CompareAndSwap(false, true) {
				return body
			}
			b := bytes.Clone(body)
			b[len(b)/2] ^= 1
			return b
		}
		_, p := runTiny(t, w, cfg)
		if p.Correct || p.Failed == 0 {
			t.Errorf("%s: a corrupted %s response passed the gate (failed=%d)", c.workload, c.kind, p.Failed)
		}
	}
}

// TestExactCountsRepeat: two traced runs with one seed give identical
// work counts.
func TestExactCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		w, cfg := tiny(t, w.name)
		cfg.trace = true
		a, _ := runTiny(t, w, cfg)
		b, _ := runTiny(t, w, cfg)
		if len(a.exact) == 0 {
			t.Errorf("%s: no exact counts", w.name)
		}
		if !reflect.DeepEqual(a.exact, b.exact) {
			t.Errorf("%s: exact counts differ between runs:\n%v\n%v", w.name, a.exact, b.exact)
		}
	}
}

// TestReplayExport: the exported inputs are a pure function of the seed,
// and `redi serve -replay` semantics reproduce them: the log replays
// through serve.Replay with every request answered 200, byte-identically
// twice.
func TestReplayExport(t *testing.T) {
	read := func(dir string) map[string][]byte {
		out := map[string][]byte{}
		for _, f := range []string{"schema.txt", "seed.csv", "requests.jsonl"} {
			b, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatal(err)
			}
			out[f] = b
		}
		return out
	}
	for _, name := range []string{"serve-read-large", "serve-ingest-mix"} {
		_, cfg := tiny(t, name)
		dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
		for i, dir := range dirs {
			c := cfg
			if i == 2 {
				c.seed++
			}
			if err := exportReplay(name, c, dir); err != nil {
				t.Fatal(err)
			}
		}
		a, b, other := read(dirs[0]), read(dirs[1]), read(dirs[2])
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed exported different inputs", name)
		}
		if bytes.Equal(a["seed.csv"], other["seed.csv"]) || bytes.Equal(a["requests.jsonl"], other["requests.jsonl"]) {
			t.Errorf("%s: another seed exported the same inputs", name)
		}

		replay := func() string {
			recs, err := serve.ReadLog(bytes.NewReader(a["requests.jsonl"]))
			if err != nil {
				t.Fatal(err)
			}
			schema := parseSpec(t, strings.TrimSpace(string(a["schema.txt"])))
			d, err := dataset.ReadCSV(bytes.NewReader(a["seed.csv"]), schema)
			if err != nil {
				t.Fatal(err)
			}
			svc, err := serve.NewService(d, serve.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			var out strings.Builder
			if err := serve.Replay(svc, recs, &out); err != nil {
				t.Fatal(err)
			}
			return out.String()
		}
		first, second := replay(), replay()
		if first != second {
			t.Errorf("%s: two replays of the exported log differ", name)
		}
		for _, block := range strings.Split(first, "## ")[1:] {
			if status := strings.SplitN(block, "\n", 3)[1]; status != "200" {
				t.Errorf("%s: replayed request answered %s: %.200s", name, status, block)
			}
		}
	}
}

// parseSpec reads the exported schema spec back, as `redi -schema` does.
func parseSpec(t *testing.T, spec string) *dataset.Schema {
	t.Helper()
	roles := map[string]dataset.Role{
		"feature": dataset.Feature, "sensitive": dataset.Sensitive, "target": dataset.Target, "id": dataset.ID,
	}
	var attrs []dataset.Attribute
	for _, part := range strings.Split(spec, ",") {
		f := strings.Split(part, ":")
		if len(f) != 3 {
			t.Fatalf("bad schema entry %q", part)
		}
		a := dataset.Attribute{Name: f[0], Kind: dataset.Categorical, Role: roles[f[2]]}
		if f[1] == "num" {
			a.Kind = dataset.Numeric
		}
		attrs = append(attrs, a)
	}
	return dataset.NewSchema(attrs...)
}

// TestFoldEveryEpisode: every episode of serve-ingest-mix starts a service
// whose recorder numbers its traces from 1 again; a folder that drains two
// traced episodes folds every ingest of both.
func TestFoldEveryEpisode(t *testing.T) {
	_, cfg := tiny(t, "serve-ingest-mix")
	g, err := genIngestMix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	for _, req := range g.lists[0] {
		if req.kind == "ingest" {
			batches++
		}
	}
	chk := newChecker(newResult())
	f := newFolder()
	for ep := 0; ep < 2; ep++ {
		svc, err := serve.NewService(g.seed.Clone(), serveConfig(cfg, true, nil))
		if err != nil {
			t.Fatal(err)
		}
		_, err = ingestEpisode(svc, g, cfg, chk, f)
		svc.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := f.byName("ingest.append").n; got != 2*batches {
		t.Errorf("folded %d ingest.append spans over two episodes, want %d", got, 2*batches)
	}
	if chk.res.failed != 0 {
		t.Errorf("%d responses failed the gate", chk.res.failed)
	}
}

// TestPerOperation: an operation's latency is the median over its
// repeats, so a stall in one repeat does not reach the percentiles, and the
// p99 over operations is that of the slowest one.
func TestPerOperation(t *testing.T) {
	ms := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	var w window
	for rep := 0; rep < 5; rep++ {
		for op := 0; op < 100; op++ {
			kind, d := "query", 1.0+float64(op)/100
			if op == 99 {
				kind, d = "audit", 10
			}
			if rep == 2 && op%10 == 0 {
				d += 50 // a stall
			}
			w.samples = append(w.samples, sample{kind, op, ms(d), 0})
		}
	}
	w.elapsed = time.Second
	r := newResult()
	r.endToEnd([]window{w}, []float64{1}, 1)
	want := map[string]float64{
		"latency_p50_ms": 1.49,
		"latency_p99_ms": 1.98,
		"audit_p50_ms":   10,
		"query_p50_ms":   1.49,
	}
	for name, v := range want {
		if got := r.e2e[name].Value; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if got := r.extra["latency_p99_single_ms"].Value; got < 50 {
		t.Errorf("latency_p99_single_ms = %v, want a stalled request", got)
	}
}
