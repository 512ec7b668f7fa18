package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports.
type result struct {
	attempted, failed int
	// e2e holds the end-to-end metrics every workload reports; extra the
	// per-operation metrics only some workloads have (printed as "# metric"
	// lines); layer the per-layer metrics of a traced run.
	e2e, extra, layer map[string]metric
	// exact holds the traced run's work counts per operation kind; they
	// repeat exactly for a seed.
	exact map[string]map[string]int64
	// lines are further "# "-prefixed report lines (layer tables, gate
	// failures).
	lines []string
}

func newResult() *result {
	return &result{
		e2e:   map[string]metric{},
		extra: map[string]metric{},
		layer: map[string]metric{},
		exact: map[string]map[string]int64{},
	}
}

// fail counts one failed or wrong operation and keeps the first few
// reasons for the report.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		r.lines = append(r.lines, "fail "+fmt.Sprintf(format, args...))
	}
}

// print writes the report lines and, last, the JSON result line.
func (r *result) print(w io.Writer, traced bool) {
	for _, l := range r.lines {
		fmt.Fprintf(w, "# %s\n", l)
	}
	printMetrics(w, "metric", r.e2e)
	printMetrics(w, "metric", r.extra)
	if traced {
		printMetrics(w, "layer", r.layer)
		for _, kind := range sortedKeys(r.exact) {
			b, err := json.Marshal(r.exact[kind])
			if err != nil {
				panic(err) // a map of int64 always marshals
			}
			fmt.Fprintf(w, "# exact %s %s\n", kind, b)
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.e2e}
	if traced {
		out.Metrics = r.layer
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", b)
}

func printMetrics(w io.Writer, tag string, m map[string]metric) {
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(w, "# %s %s %v %s\n", tag, name, m[name].Value, m[name].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sample is one timed operation: its kind, which operation of the run's
// fixed list it was (a workload repeats its list, so op identifies the
// repeats of one request or command), its latency, and when it completed
// as an offset from the start of its phase.
type sample struct {
	kind    string
	op      int
	dur, at time.Duration
}

// window is a stretch of a timed phase: the operations completed in it
// and its length.
type window struct {
	samples []sample
	elapsed time.Duration
}

func (w window) throughput() float64 {
	return float64(len(w.samples)) / w.elapsed.Seconds()
}

// windowLen is the length of the time windows serve phases are cut into;
// throughput is a trimmed mean over windows.
const windowLen = 2 * time.Second

// split cuts w into equal time windows of about windowLen, assigning each
// operation by its completion time.
func (w window) split() []window {
	n := max(1, int(w.elapsed/windowLen))
	out := make([]window, n)
	for i := range out {
		out[i].elapsed = w.elapsed / time.Duration(n)
	}
	for _, s := range w.samples {
		i := min(n-1, int(s.at/out[0].elapsed))
		out[i].samples = append(out[i].samples, s)
	}
	return out
}

// join concatenates windows into one, shifting completion times so they
// stay offsets from the start of the first.
func join(ws []window) window {
	var out window
	for _, w := range ws {
		for _, s := range w.samples {
			s.at += out.elapsed
			out.samples = append(out.samples, s)
		}
		out.elapsed += w.elapsed
	}
	return out
}

// percentile is the nearest-rank q-quantile of ds in milliseconds (0 for
// no samples).
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / float64(time.Millisecond)
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func durations(ss []sample, kind string) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		if kind == "" || s.kind == kind {
			out = append(out, s.dur)
		}
	}
	return out
}

// p90Samples is the fewest samples of a kind for which a p90 is reported,
// so that at least ten samples lie beyond it.
const p90Samples = 100

// perOp is each operation's latency, the median over its repeats, by kind
// ("" for all).
func perOp(ss []sample) map[string][]time.Duration {
	reps := map[int][]time.Duration{}
	kinds := map[int]string{}
	for _, s := range ss {
		reps[s.op] = append(reps[s.op], s.dur)
		kinds[s.op] = s.kind
	}
	out := map[string][]time.Duration{}
	for op, ds := range reps {
		slices.Sort(ds)
		m := ds[(len(ds)-1)/2]
		out[""] = append(out[""], m)
		out[kinds[op]] = append(out[kinds[op]], m)
	}
	return out
}

// endToEnd fills the end-to-end metrics from the windows of an untraced
// phase. Throughput is a trimmed mean over windows of each window's
// throughput. The latency percentiles are taken over the operations of the
// run's fixed list, each at its median latency over its repeats: the tail
// is that of the request mix, while a stall the host's scheduler puts into
// a few repeats, which on a shared host decides the 99th percentile of
// single requests, moves a median not at all. Set-up time is the median of
// the set-ups; the heap is one reading. The sample and operation counts,
// the other kinds' p50s (over operations, as above), the pooled p99 and
// p90s of single requests (a p90 only where a kind has p90Samples
// samples) and the error rate go to the extra lines.
func (r *result) endToEnd(ws []window, setups []float64, heapMB float64) {
	var xs []float64
	for _, w := range ws {
		xs = append(xs, w.throughput())
	}
	all := join(ws)
	ops := perOp(all.samples)
	pct := func(kind string, q float64) float64 { return percentile(ops[kind], q) }
	r.e2e["throughput_ops_s"] = metric{trimmedMean(xs), "1/s"}
	r.e2e["latency_p50_ms"] = metric{pct("", 0.5), "ms"}
	r.e2e["latency_p99_ms"] = metric{pct("", 0.99), "ms"}
	r.e2e["audit_p50_ms"] = metric{pct("audit", 0.5), "ms"}
	r.e2e["query_p50_ms"] = metric{pct("query", 0.5), "ms"}
	r.e2e["setup_s"] = metric{medianOf(setups), "s"}
	r.e2e["heap_mb"] = metric{heapMB, "MB"}

	r.extra["windows"] = metric{float64(len(ws)), "count"}
	r.extra["operations"] = metric{float64(len(ops[""])), "count"}
	r.extra["samples"] = metric{float64(len(all.samples)), "count"}
	r.extra["setups"] = metric{float64(len(setups)), "count"}
	r.extra["latency_p99_single_ms"] = metric{percentile(durations(all.samples, ""), 0.99), "ms"}
	byKind := map[string][]time.Duration{}
	for _, s := range all.samples {
		byKind[s.kind] = append(byKind[s.kind], s.dur)
	}
	for _, kind := range sortedKeys(byKind) {
		ds := byKind[kind]
		r.extra["samples."+kind] = metric{float64(len(ds)), "count"}
		if kind != "audit" && kind != "query" {
			r.extra[kind+"_p50_ms"] = metric{pct(kind, 0.5), "ms"}
		}
		if len(ds) >= p90Samples {
			r.extra[kind+"_p90_ms"] = metric{percentile(ds, 0.9), "ms"}
		}
	}
	r.extra["error_rate"] = metric{float64(r.failed) / float64(max(1, r.attempted)), "ratio"}
}

// trimmedMean is the mean of xs without its lowest and highest fifth. On a
// shared host the machine's speed switches between levels every few
// seconds; a median over windows jumps with whichever level held most of
// the run, while a trimmed mean moves with the share of each and still
// drops a burst.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 5
	s = s[k : len(s)-k]
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runtimeSample holds the allocation and GC CPU counters of
// runtime/metrics, or their growth over some stretch.
type runtimeSample struct {
	allocs, allocBytes uint64
	gcCPU, totalCPU    float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var rs runtimeSample
	if ss[0].Value.Kind() == metrics.KindUint64 {
		rs.allocs = ss[0].Value.Uint64()
	}
	if ss[1].Value.Kind() == metrics.KindUint64 {
		rs.allocBytes = ss[1].Value.Uint64()
	}
	if ss[2].Value.Kind() == metrics.KindFloat64 {
		rs.gcCPU = ss[2].Value.Float64()
	}
	if ss[3].Value.Kind() == metrics.KindFloat64 {
		rs.totalCPU = ss[3].Value.Float64()
	}
	return rs
}

// runtimeLayer reports allocations per operation and the GC's share of
// CPU time from the counters used by ops operations.
func (r *result) runtimeLayer(used runtimeSample, ops int) {
	n := float64(max(1, ops))
	r.layer["runtime.allocs_per_op"] = metric{float64(used.allocs) / n, "count"}
	r.layer["runtime.alloc_bytes_per_op"] = metric{float64(used.allocBytes) / n, "B"}
	frac := 0.0
	if used.totalCPU > 0 {
		frac = used.gcCPU / used.totalCPU
	}
	r.layer["runtime.gc_cpu_fraction"] = metric{frac, "ratio"}
}

// alternate is the traced run's timed phase: untraced and traced windows
// in pairs, in ABBA order so that a drift in machine speed reaches both
// sides alike, until the untraced side has had the run length. It returns
// both sides' windows and the runtime counters the untraced ones used.
func alternate(seconds time.Duration, untraced, traced func() (window, error)) (u, t []window, used runtimeSample, err error) {
	var total time.Duration
	for k := 0; total < seconds; k++ {
		runU := func() error {
			before := readRuntime()
			w, err := untraced()
			after := readRuntime()
			used.allocs += after.allocs - before.allocs
			used.allocBytes += after.allocBytes - before.allocBytes
			used.gcCPU += after.gcCPU - before.gcCPU
			used.totalCPU += after.totalCPU - before.totalCPU
			u = append(u, w)
			total += w.elapsed
			return err
		}
		runT := func() error {
			w, err := traced()
			t = append(t, w)
			return err
		}
		first, second := runU, runT
		if k%2 == 1 {
			first, second = runT, runU
		}
		if err := first(); err != nil {
			return nil, nil, used, err
		}
		if err := second(); err != nil {
			return nil, nil, used, err
		}
	}
	return u, t, used, nil
}

// overhead reports how much slower traced windows ran than the untraced
// window of their pair, in percent of untraced throughput: the median over
// pairs.
func (r *result) overhead(untraced, traced []window) {
	var xs []float64
	for k := range untraced {
		u := untraced[k].throughput()
		xs = append(xs, (u-traced[k].throughput())/u*100)
	}
	r.layer["trace.overhead_pct"] = metric{medianOf(xs), "%"}
}
