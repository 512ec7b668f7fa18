package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"redi/internal/dataset"
	"redi/internal/obs"
	"redi/internal/rng"
	"redi/internal/serve"
	"redi/internal/trace"
)

// ingestMix is the generated input of serve-ingest-mix. An episode starts
// a service on the seed rows; client 0 sends every batch in order, each
// followed by two reads, while the other clients send their own fixed read
// lists. Reads are mostly /query count, /tailor and /discovery, with 5%
// /audit. Every episode sends the same requests, so its mix of operation
// kinds does not depend on how fast any of them runs. Only client 0
// writes, so the state after an episode is fixed; the final requests check
// it against a cold service built over seed + all batches.
type ingestMix struct {
	seed   *dataset.Dataset
	lists  [][]request
	final  []request
	expect [][]byte
}

const (
	ingestSeedRows  = 20_000
	ingestBatches   = 100
	ingestBatchRows = 200
	// readerReads is a reading client's number of reads per batch: about
	// as many as it completes while client 0 sends one batch and its two
	// reads, so both clients stay busy for most of an episode.
	readerReads = 4
)

func genIngestMix(cfg config) (*ingestMix, error) {
	seedRows := max(500, int(ingestSeedRows*cfg.scale))
	batches := max(4, int(ingestBatches*cfg.scale))
	r := rng.New(cfg.seed)
	// One population split into the seed and the batches, so every batch
	// carries nulls and ids the resident table has not seen.
	all, err := population(seedRows+batches*ingestBatchRows, r.Split())
	if err != nil {
		return nil, err
	}
	// The seed goes through CSV on its own, so its dictionaries hold only
	// its own values, as when `redi serve` loads the exported seed file,
	// and each batch's ids are new to the resident indexes.
	var seedCSV bytes.Buffer
	if err := all.Head(seedRows).WriteCSV(&seedCSV); err != nil {
		return nil, err
	}
	seed, err := dataset.ReadCSV(&seedCSV, all.Schema())
	if err != nil {
		return nil, err
	}
	g := &ingestMix{seed: seed}
	var ingests []request
	for b := 0; b < batches; b++ {
		idx := make([]int, ingestBatchRows)
		for i := range idx {
			idx[i] = seedRows + b*ingestBatchRows + i
		}
		var csv bytes.Buffer
		if err := all.Gather(idx).WriteCSV(&csv); err != nil {
			return nil, err
		}
		req := postReq("ingest", "/ingest", map[string]string{"csv": csv.String()})
		req.id = -1
		ingests = append(ingests, req)
	}
	p := genPools(all, r.Split())
	// One audit per threshold, so that the 10 and 20 audits of the two
	// clients' lists use every threshold equally often: the cost of the
	// coverage walk depends on the threshold.
	audits := make([]request, 10)
	for i := range audits {
		audits[i] = p.audit[4*i+i%4]
	}
	for c := 0; c < cfg.clients; c++ {
		// Client 0 reads twice per batch, the other clients readerReads
		// times. Reads come in exact shares: 45% /query count, 25%
		// /tailor and 25% /discovery, shuffled, and 5% /audit.
		cr := r.Split()
		n := 2 * batches
		if c > 0 {
			n = readerReads * batches
		}
		counts := []int{n * 45 / 100, n * 25 / 100, n * 25 / 100}
		var reads []request
		for k, pool := range [][]request{p.count, p.tailor, p.discovery} {
			reads = append(reads, pick(pool, counts[k], cr)...)
		}
		cr.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
		// The audits sit at evenly spaced places, their thresholds in a
		// fixed order, so that every seed runs each at the same stage of
		// the episode: an audit's cost grows with the rows resident.
		na := n - len(reads)
		for j := 0; j < na; j++ {
			reads = slices.Insert(reads, (2*j+1)*n/(2*na), audits[j%len(audits)])
		}
		var list []request
		for i, req := range reads {
			if c == 0 && i%2 == 0 {
				list = append(list, ingests[i/2])
			}
			req.id = -1 // responses follow the ingests
			list = append(list, req)
		}
		g.lists = append(g.lists, list)
	}
	g.final = []request{p.stats, p.audit[len(p.audit)/2], p.count[0], p.discovery[0], p.tailor[0]}

	// The expected final state: a cold service over the seed followed by
	// every batch, each parsed exactly as /ingest parses it.
	d := g.seed.Clone()
	for _, ing := range ingests {
		b, err := parseBatch(ing, d.Schema())
		if err != nil {
			return nil, err
		}
		if err := d.AppendDataset(b); err != nil {
			return nil, err
		}
	}
	cold, err := serve.NewService(d, serveConfig(cfg, false, nil))
	if err != nil {
		return nil, err
	}
	defer cold.Close()
	w := newRespWriter()
	for _, req := range g.final {
		if _, err := call(cold, req, w); err != nil {
			return nil, err
		}
		if w.code != 200 {
			return nil, fmt.Errorf("cold service: %s: status %d", req.rec.Path, w.code)
		}
		g.expect = append(g.expect, bytes.Clone(w.buf.Bytes()))
	}
	return g, nil
}

// parseBatch parses an ingest request's CSV.
func parseBatch(req request, s *dataset.Schema) (*dataset.Dataset, error) {
	var body struct{ CSV string }
	if err := json.Unmarshal([]byte(req.rec.Body), &body); err != nil {
		return nil, err
	}
	return dataset.ReadCSV(strings.NewReader(body.CSV), s)
}

func runIngestMix(cfg config) (*result, error) {
	g, err := genIngestMix(cfg)
	if err != nil {
		return nil, err
	}
	res := newResult()
	chk := newChecker(res)
	var setups []float64
	var heap float64

	// episodes runs whole episodes, one window each, until their timed
	// phases add up to d. Set-up, NewService over the seed, is timed for
	// every untraced episode; the heap is read at the end of the last one.
	episodes := func(d time.Duration, traced bool, f *folder) ([]window, error) {
		var eps []window
		var total time.Duration
		for total < d {
			data := g.seed.Clone()
			runtime.GC()
			start := obs.Now()
			svc, err := serve.NewService(data, serveConfig(cfg, traced, nil))
			if !traced {
				setups = append(setups, obs.Now().Sub(start).Seconds())
			}
			if err != nil {
				return nil, err
			}
			p, err := ingestEpisode(svc, g, cfg, chk, f)
			if err != nil {
				svc.Close()
				return nil, err
			}
			eps = append(eps, p)
			total += p.elapsed
			res.attempted += len(p.samples)
			if !traced && total >= d {
				heap = liveHeapMB()
			}
			checkFinal(svc, g, chk, res, cfg)
			svc.Close()
		}
		return eps, nil
	}

	var untraced []window
	if !cfg.trace {
		// An episode is a window: each holds exactly the same requests.
		untraced, err = episodes(cfg.seconds, false, nil)
		if err != nil {
			return nil, err
		}
	} else {
		f := newFolder()
		joined := func(traced bool, f *folder) func() (window, error) {
			return func() (window, error) {
				eps, err := episodes(cfg.window(), traced, f)
				return join(eps), err
			}
		}
		u, t, used, err := alternate(cfg.seconds, joined(false, nil), joined(true, f))
		if err != nil {
			return nil, err
		}
		untraced = u
		res.timingLayers(f)
		res.overhead(u, t)
		res.runtimeLayer(used, len(join(u).samples))
		res.layer["serve.rejected_ratio"] = metric{float64(chk.rejected) / float64(max(1, res.attempted)), "ratio"}

		reg := obs.NewRegistry()
		svc, err := serve.NewService(g.seed.Clone(), serveConfig(cfg, true, reg))
		if err != nil {
			return nil, err
		}
		defer svc.Close()
		if err := exactPass(svc, reg, interleaved(g.lists), res, chk, cfg); err != nil {
			return nil, err
		}
		checkFinal(svc, g, chk, res, cfg)
		res.exactLayers()
	}
	for len(setups) < cfg.setupReps {
		data := g.seed.Clone()
		runtime.GC()
		start := obs.Now()
		svc, err := serve.NewService(data, serveConfig(cfg, false, nil))
		setups = append(setups, obs.Now().Sub(start).Seconds())
		if err != nil {
			return nil, err
		}
		svc.Close()
	}
	res.endToEnd(untraced, setups, heap)
	return res, nil
}

// ingestEpisode runs every client's list once.
func ingestEpisode(svc *serve.Service, g *ingestMix, cfg config, chk *checker, f *folder) (window, error) {
	return closedLoop(len(g.lists), func(c int, start time.Time) ([]sample, error) {
		w := newRespWriter()
		var out []sample
		// Operations are numbered across the clients' lists.
		first := 0
		for _, l := range g.lists[:c] {
			first += len(l)
		}
		for i, req := range g.lists[c] {
			var sp *trace.Span
			if f != nil {
				sp = trace.New("ServeHTTP")
			}
			d, err := send(svc, req, w, chk, cfg)
			if err != nil {
				return out, err
			}
			sp.End()
			out = append(out, sample{req.kind, first + i, d, obs.Now().Sub(start)})
			if f != nil {
				f.fold("ServeHTTP", sp)
				if i%32 == 31 {
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

// checkFinal compares the service's final-state responses with the cold
// service's.
func checkFinal(svc *serve.Service, g *ingestMix, chk *checker, res *result, cfg config) {
	w := newRespWriter()
	for i, req := range g.final {
		res.attempted++
		if _, err := call(svc, req, w); err != nil {
			chk.mu.Lock()
			chk.res.fail("%s: %v", req.rec.Path, err)
			chk.mu.Unlock()
			continue
		}
		body := w.buf.Bytes()
		if cfg.corrupt != nil {
			body = cfg.corrupt(req.kind, body)
		}
		if w.code != 200 || !bytes.Equal(body, g.expect[i]) {
			chk.mu.Lock()
			chk.res.fail("%s %s: final state differs from a cold service over seed + all batches", req.rec.Method, req.rec.Path)
			chk.mu.Unlock()
		}
	}
}
