package main

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"time"

	"redi/internal/dataset"
	"redi/internal/obs"
	"redi/internal/rng"
	"redi/internal/serve"
	"redi/internal/trace"
)

// readLarge is the generated input of serve-read-large: the resident rows,
// the distinct requests, and the request list of each client. The mix is 38%
// /audit, 40% /query count, 7% /query select, 10% /discovery and 5%
// /stats.
type readLarge struct {
	base  *dataset.Dataset
	pool  []request
	lists [][]request
}

const readLargeRows = 200_000

// readLargeList is each client's list length; the timed phase cycles it.
const readLargeList = 200

func genReadLarge(cfg config) (*readLarge, error) {
	rows := max(500, int(readLargeRows*cfg.scale))
	r := rng.New(cfg.seed)
	base, err := population(rows, r.Split())
	if err != nil {
		return nil, err
	}
	p := genPools(base, r.Split())
	g := &readLarge{base: base}
	var byKind [][]request
	for _, kind := range [][]request{p.audit, p.count, p.sel, p.discovery, {p.stats}} {
		var ids []request
		for _, req := range kind {
			req.id = len(g.pool)
			g.pool = append(g.pool, req)
			ids = append(ids, req)
		}
		byKind = append(byKind, ids)
	}
	// Exact shares per list keep the realized mix, and with it the
	// latency percentiles, the same for every seed. Ranked by latency the
	// kinds run stats, discovery, count, select, audit; the median request
	// falls in the upper part of the counts, whose latencies are flat,
	// rather than among the selects, whose latencies swing with the
	// collector, or on the edge between two kinds.
	shares := []int{76, 80, 14, 20, 10} // of readLargeList
	for c := 0; c < cfg.clients; c++ {
		cr := r.Split()
		var list []request
		for k, n := range shares {
			list = append(list, pick(byKind[k], n, cr)...)
		}
		cr.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		g.lists = append(g.lists, list)
	}
	return g, nil
}

// interleaved is the clients' lists merged round-robin: the order of the
// exact pass and of the exported replay log.
func interleaved(lists [][]request) []request {
	var out []request
	for i := 0; ; i++ {
		added := false
		for _, l := range lists {
			if i < len(l) {
				out = append(out, l[i])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

func runReadLarge(cfg config) (*result, error) {
	g, err := genReadLarge(cfg)
	if err != nil {
		return nil, err
	}
	res := newResult()
	chk := newChecker(res)

	// Set-up is NewService, which builds the group index, coverage space
	// and LSH index; each repetition gets a fresh copy of the rows.
	var setups []float64
	var svc *serve.Service
	for i := 0; i < cfg.setupReps; i++ {
		d := g.base.Clone()
		runtime.GC()
		start := obs.Now()
		s, err := serve.NewService(d, serveConfig(cfg, false, nil))
		setups = append(setups, obs.Now().Sub(start).Seconds())
		if err != nil {
			return nil, err
		}
		if svc != nil {
			svc.Close()
		}
		svc = s
	}
	defer svc.Close()

	warm := interleaved(g.lists)
	w := newRespWriter()
	for _, req := range warm[:min(len(warm), 40)] {
		if _, err := send(svc, req, w, chk, cfg); err != nil {
			return nil, err
		}
		res.attempted++
	}
	pos := make([]int, len(g.lists))
	var untraced []window
	if !cfg.trace {
		g.base = nil // the heap reading should show the service, not the generator
		p, err := readLargeRun(svc, g, pos, cfg.seconds, cfg, chk, nil)
		if err != nil {
			return nil, err
		}
		untraced = p.split()
	} else {
		reg := obs.NewRegistry()
		tsvc, err := serve.NewService(g.base.Clone(), serveConfig(cfg, true, reg))
		if err != nil {
			return nil, err
		}
		defer tsvc.Close()
		f := newFolder()
		tpos := make([]int, len(g.lists))
		u, t, used, err := alternate(cfg.seconds,
			func() (window, error) { return readLargeRun(svc, g, pos, cfg.window(), cfg, chk, nil) },
			func() (window, error) { return readLargeRun(tsvc, g, tpos, cfg.window(), cfg, chk, f) })
		if err != nil {
			return nil, err
		}
		untraced = u
		res.attempted += len(join(t).samples)
		res.timingLayers(f)
		res.overhead(u, t)
		res.runtimeLayer(used, len(join(u).samples))
		res.layer["serve.rejected_ratio"] = metric{float64(chk.rejected) / float64(max(1, res.attempted)), "ratio"}
		if err := exactPass(tsvc, reg, warm, res, chk, cfg); err != nil {
			return nil, err
		}
		res.exactLayers()
	}
	res.attempted += len(join(untraced).samples)
	heap := liveHeapMB()
	if err := coldCheck(svc, g.pool, chk, res); err != nil {
		return nil, err
	}
	res.endToEnd(untraced, setups, heap)
	return res, nil
}

// readLargeRun runs every client's list cyclically for d, continuing each
// client from its position in pos. With a folder it records a span around
// each ServeHTTP call and folds the service's request traces.
func readLargeRun(svc *serve.Service, g *readLarge, pos []int, d time.Duration, cfg config, chk *checker, f *folder) (window, error) {
	deadline := obs.Now().Add(d)
	return closedLoop(len(g.lists), func(c int, start time.Time) ([]sample, error) {
		w := newRespWriter()
		list := g.lists[c]
		var out []sample
		for obs.Now().Before(deadline) {
			op := pos[c] % len(list)
			req := list[op]
			pos[c]++
			var sp *trace.Span
			if f != nil {
				sp = trace.New("ServeHTTP")
			}
			d, err := send(svc, req, w, chk, cfg)
			if err != nil {
				return out, err
			}
			sp.End()
			out = append(out, sample{req.kind, c*len(list) + op, d, obs.Now().Sub(start)})
			if f != nil {
				f.fold("ServeHTTP", sp)
				if pos[c]%32 == 0 {
					f.drain(svc.Recorder(), traceLabel)
				}
			}
		}
		if f != nil {
			f.drain(svc.Recorder(), traceLabel)
		}
		return out, nil
	})
}

// coldCheck compares the first response to every distinct request seen
// with a cold library call over the service's current snapshot.
func coldCheck(svc *serve.Service, pool []request, chk *checker, res *result) error {
	o := &oracle{d: svc.Store().View(), sens: svc.Store().Stats().Sensitive}
	chk.mu.Lock()
	defer chk.mu.Unlock()
	for _, req := range pool {
		got, ok := chk.first[req.id]
		if !ok {
			continue
		}
		want, err := o.expect(req)
		if err != nil {
			return fmt.Errorf("oracle for %s: %w", req.rec.Path, err)
		}
		res.attempted++
		if maphash.Bytes(chk.seed, want) != got {
			chk.res.fail("%s %s: response differs from a cold library call", req.rec.Method, req.rec.Path)
		}
	}
	return nil
}
