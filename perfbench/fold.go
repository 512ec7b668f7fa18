package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"redi/internal/trace"
)

// spanStat accumulates every occurrence of one span name under one kind
// of root.
type spanStat struct {
	n     int
	total time.Duration
	self  time.Duration
	attrs map[string]int64
}

type foldKey struct{ root, name string }

// folder folds span trees by (root label, span name): occurrences, total
// and self time (duration minus the time its children cover), and the
// sums of the deterministic attributes. A root span is folded under its
// label as its name. It is safe for concurrent use.
type folder struct {
	mu    sync.Mutex
	stats map[foldKey]*spanStat
	// cursors hold how far each drained recorder has been folded. Every
	// service numbers its traces from 1, so a cursor belongs to one
	// recorder.
	cursors map[*trace.Recorder]*cursor
}

// cursor is a recorder's drain position: every trace with an ID at most
// done has been folded, and seen holds the folded IDs above it.
type cursor struct {
	done uint64
	seen map[uint64]bool
}

func newFolder() *folder {
	return &folder{stats: map[foldKey]*spanStat{}, cursors: map[*trace.Recorder]*cursor{}}
}

// fold adds the tree under root, labelled label.
func (f *folder) fold(label string, root *trace.Span) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.walk(label, label, root)
}

// walk folds s, under the name given, and its subtree.
func (f *folder) walk(label, name string, s *trace.Span) {
	var covered time.Duration
	for _, c := range s.Children() {
		// Children of one span run one after another on the request's
		// serial control path, so their durations add up to the time
		// they cover.
		covered += c.Duration()
		f.walk(label, c.Name(), c)
	}
	k := foldKey{label, name}
	st := f.stats[k]
	if st == nil {
		st = &spanStat{attrs: map[string]int64{}}
		f.stats[k] = st
	}
	d := s.Duration()
	st.n++
	st.total += d
	st.self += max(0, d-covered)
	for _, a := range s.Attrs() {
		st.attrs[a.Key] += a.Val
	}
}

// drain folds every trace the recorder retains that has not been folded
// yet. Calling it after each request keeps the ring from evicting a trace
// before it is folded.
func (f *folder) drain(rec *trace.Recorder, label func(*trace.Trace) string) {
	traces := rec.Traces()
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.cursors[rec]
	if cur == nil {
		cur = &cursor{seen: map[uint64]bool{}}
		f.cursors[rec] = cur
	}
	for _, t := range traces {
		if t.ID <= cur.done || cur.seen[t.ID] {
			continue
		}
		cur.seen[t.ID] = true
		l := label(t)
		f.walk(l, l, t.Root())
	}
	for cur.seen[cur.done+1] {
		delete(cur.seen, cur.done+1)
		cur.done++
	}
}

// byName sums the timings of span names over every root label.
func (f *folder) byName(names ...string) spanStat {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out spanStat
	for k, st := range f.stats {
		for _, n := range names {
			if k.name == n {
				out.n += st.n
				out.total += st.total
				out.self += st.self
			}
		}
	}
	return out
}

// rootSelf sums the self time of the root spans with the given labels.
func (f *folder) rootSelf(labels ...string) spanStat {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out spanStat
	for _, l := range labels {
		if st := f.stats[foldKey{l, l}]; st != nil {
			out.n += st.n
			out.total += st.total
			out.self += st.self
		}
	}
	return out
}

// share is the percentage of the time of the roots with the given labels
// spent in span name.
func (f *folder) share(name string, labels ...string) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var root, part time.Duration
	for _, l := range labels {
		if st := f.stats[foldKey{l, l}]; st != nil {
			root += st.total
		}
		if st := f.stats[foldKey{l, name}]; st != nil {
			part += st.total
		}
	}
	if root == 0 {
		return 0
	}
	return float64(part) / float64(root) * 100
}

// meanMS is the mean duration per occurrence in milliseconds, or the mean
// self time when self is set.
func (st spanStat) meanMS(self bool) float64 {
	if st.n == 0 {
		return 0
	}
	d := st.total
	if self {
		d = st.self
	}
	return float64(d) / float64(st.n) / float64(time.Millisecond)
}

// table renders the fold as report lines, one per (root, span).
func (f *folder) table() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]foldKey, 0, len(f.stats))
	for k := range f.stats {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].root != keys[j].root {
			return keys[i].root < keys[j].root
		}
		return keys[i].name < keys[j].name
	})
	var lines []string
	for _, k := range keys {
		st := f.stats[k]
		var attrs []string
		for _, a := range sortedKeys(st.attrs) {
			attrs = append(attrs, fmt.Sprintf("%s=%d", a, st.attrs[a]))
		}
		lines = append(lines, fmt.Sprintf("span root=%s name=%s n=%d mean_ms=%.4f self_ms=%.4f %s",
			k.root, k.name, st.n, st.meanMS(false), st.meanMS(true), strings.Join(attrs, " ")))
	}
	return lines
}

// timingLayers sets the per-layer timing metrics from a traced phase's
// fold. Each is the mean milliseconds per occurrence of the layer's span
// (0 where the workload never enters the layer).
func (r *result) timingLayers(f *folder) {
	ms := func(name string, st spanStat, self bool) {
		r.layer[name] = metric{st.meanMS(self), "ms"}
	}
	ms("serve.admission_wait_ms", f.byName("admission.wait"), false)
	ms("serve.snapshot_acquire_ms", f.byName("snapshot.acquire"), false)
	ms("serve.handler_self_ms", f.rootSelf(serveRoots...), true)
	for _, p := range []string{"decode", "append", "groups_advance", "space_advance", "lsh_upsert", "snapshot_refresh"} {
		ms("serve.ingest."+p+"_ms", f.byName("ingest."+p), false)
	}
	ms("core.audit.coverage_ms", f.byName("audit.coverage"), false)
	ms("core.audit.completeness_ms", f.byName("audit.completeness"), false)
	for _, p := range []string{"index", "tailor", "impute", "audit", "label"} {
		ms("core.pipeline."+p+"_ms", f.byName("pipeline."+p), false)
	}
	ms("coverage.mup_walk_ms", f.byName("coverage.mup_walk"), false)
	ms("expr.compile_ms", f.byName("query.compile", "CompilePartitioned"), false)
	ms("dataset.predicate_eval_ms", f.byName("dataset.predicate_count", "dataset.predicate_select"), false)
	// Partitioned sources are grouped inside the pipeline's index step,
	// which does nothing else of note; in-memory grouping has its own span.
	ms("dataset.groupby_ms", f.byName("dataset.groupby", "pipeline.index"), false)
	// A served select materializes and encodes its rows in the handler
	// itself, so its root's self time is the materialize cost there.
	ms("dataset.materialize_ms", f.byName("AppendRowsTo"), false)
	if st := f.rootSelf("query-select"); st.n > 0 {
		ms("dataset.materialize_ms", st, true)
	}
	ms("colfile.open_ms", f.byName("colfile.Open"), false)
	ms("discovery.lsh_probe_ms", f.byName("discovery.lsh_probe"), false)
	ms("discovery.lsh_verify_ms", f.byName("discovery.lsh_verify"), false)
	ms("dt.tailor_run_ms", f.byName("tailor.run", "pipeline.tailor"), false)
	// Served requests are labelled by endpoint, batch commands cmd.<name>;
	// a workload has one or the other.
	r.layer["core.audit.completeness_share_pct"] = metric{f.share("audit.completeness", "audit", "cmd.audit"), "%"}
	r.layer["expr.compile_share_pct"] = metric{f.share("query.compile", "query") + f.share("CompilePartitioned", "cmd.query-count"), "%"}
	r.lines = append(r.lines, f.table()...)
}

// serveRoots are the fold labels of served requests' root spans.
var serveRoots = []string{"audit", "query", "query-select", "tailor", "discovery", "ingest", "stats"}

// exactLayers sets the per-layer work counts from the exact pass's
// per-kind tallies: totals over the pass, plus the two useful-work ratios.
func (r *result) exactLayers() {
	total := map[string]int64{}
	for _, m := range r.exact {
		for k, v := range m {
			total[k] += v
		}
	}
	count := func(name, key string) {
		r.layer[name] = metric{float64(total[key]), "count"}
	}
	count("core.completeness.rows", "completeness.rows")
	count("coverage.dfs_nodes", "coverage.dfs_nodes")
	count("coverage.bitmap_ands", "coverage.bitmap_ands")
	count("dataset.rows_scanned", "dataset.predicate_rows_scanned")
	count("dataset.partitions_scanned", "dataset.partitions_scanned")
	count("dataset.partitions_pruned", "dataset.partitions_pruned")
	count("discovery.lsh_candidates", "discovery.lsh_candidates")
	count("discovery.lsh_verified", "discovery.lsh_verified")
	count("dt.draws", "dt.draws")
	count("dt.rows_collected", "dt.collected")
	count("serve.ingest.lsh_upserts", "discovery.lsh_upserts")
	ratio := func(name, num, den string) {
		v := 0.0
		if total[den] > 0 {
			v = float64(total[num]) / float64(total[den])
		}
		r.layer[name] = metric{v, "ratio"}
	}
	ratio("discovery.verified_ratio", "discovery.lsh_verified", "discovery.lsh_candidates")
	ratio("dt.yield_ratio", "dt.collected", "dt.draws")
}

// addExact adds one operation's counter deltas to its kind's tallies.
func (r *result) addExact(kind string, delta map[string]int64) {
	m := r.exact[kind]
	if m == nil {
		m = map[string]int64{}
		r.exact[kind] = m
	}
	m["ops"]++
	for k, v := range delta {
		m[k] += v
	}
}
