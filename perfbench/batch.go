package main

import (
	"fmt"
	"hash/maphash"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"redi/internal/colfile"
	"redi/internal/core"
	"redi/internal/dataset"
	"redi/internal/expr"
	"redi/internal/obs"
	"redi/internal/rng"
	"redi/internal/synth"
	"redi/internal/trace"
)

// command is one CLI-equivalent batch command. label names it in the
// report (audit, query-count, query-select, tailor); kind groups its
// latency with the serve workloads' (audit, query, tailor).
type command struct {
	label, kind string
	expr        string
	threshold   int
	maxNull     float64
	seed        uint64
}

// batchInput is the generated input of batch-colfile: a 500k-row table
// with an id column and nulls, five E12-shaped skewed sources, E12's
// per-group need, and one cycle of commands.
type batchInput struct {
	main    *dataset.Dataset
	sources []*dataset.Dataset
	sens    []string
	need    map[dataset.GroupKey]int
	cmds    []command
}

const (
	batchRows       = 500_000
	batchSourceRows = 20_000
)

func genBatch(cfg config) (*batchInput, error) {
	r := rng.New(cfg.seed)
	rows := max(2000, int(batchRows*cfg.scale))
	main, err := population(rows, r.Split())
	if err != nil {
		return nil, err
	}
	// E12's sources: five Dirichlet-skewed extracts (concentration 1.5)
	// of a population with a strong group effect, here with 2% MAR nulls
	// on f0 so the pipeline's imputation step has work.
	popCfg := synth.DefaultPopulation(0)
	popCfg.GroupEffect = 1.5
	set := synth.GenerateSources(synth.SourceConfig{
		Population:        popCfg,
		NumSources:        5,
		RowsPerSource:     max(500, int(batchSourceRows*cfg.scale)),
		SkewConcentration: 1.5,
	}, r.Split())
	in := &batchInput{main: main, sens: set.SensitiveNames, need: map[dataset.GroupKey]int{}}
	for _, src := range set.Sources {
		in.sources = append(in.sources, synth.InjectMissing(src, synth.MissingConfig{
			Attr: "f0", Rate: 0.02, Mech: synth.MAR, CondAttr: "race", CondValue: "black",
		}, r.Split()))
	}
	// E12's need: 150 rows of every group some source holds.
	for gi, k := range set.Groups {
		for s := range set.Sources {
			if set.GroupDists[s][gi] > 0 {
				in.need[k] = 150
				break
			}
		}
	}

	races := []string{"white", "black", "hispanic", "asian"}
	num := func(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }
	audit := func(frac, maxNull float64) command {
		return command{label: "audit", kind: "audit", threshold: max(1, int(frac*float64(rows))), maxNull: maxNull}
	}
	count := func(e string) command { return command{label: "query-count", kind: "query", expr: e} }
	sel := func(e string) command { return command{label: "query-select", kind: "query", expr: e} }
	tailor := func() command { return command{label: "tailor", kind: "tailor", seed: 1 + r.Uint64n(1<<20)} }
	ids := func(k int) string {
		s := ""
		for i := 0; i < k; i++ {
			if i > 0 {
				s += ", "
			}
			s += fmt.Sprintf("'p%06d'", r.Intn(rows))
		}
		return s
	}
	band := func() string {
		a := num(-1.5, 1.5)
		return fmt.Sprintf("f%d between %.3f and %.3f", r.Intn(4), a, a+0.025)
	}
	// One cycle: two audits (one finds MUPs, one does not), six counts
	// (one pruned to the partitions holding a few ids), three selects of
	// at most 1% of rows, two tailoring runs.
	in.cmds = []command{
		audit(0.01, 0.05),
		count(fmt.Sprintf("race = '%s' and f0 > %.2f", races[r.Intn(4)], num(-1, 1))),
		count(fmt.Sprintf("id in (%s)", ids(3))),
		sel(band()),
		tailor(),
		count(fmt.Sprintf("f2 < %.2f or label = 'pos'", num(-1, 1))),
		audit(0.05, 0.02),
		sel(band() + fmt.Sprintf(" and race != '%s'", races[r.Intn(4)])),
		count("f0 is null and race = 'black'"),
		tailor(),
		count(fmt.Sprintf("race in ('black', 'asian') and f3 > %.2f", num(-1, 1))),
		sel(band()),
		count(fmt.Sprintf("not (sex = 'M') and f1 <= %.2f and label != 'neg'", num(-1, 1))),
	}
	return in, nil
}

// batchFiles are the column files one set-up writes.
type batchFiles struct {
	main    string
	sources []string
}

// writeFiles is the set-up of batch-colfile: `redi convert` of the main
// table and of every source.
func writeFiles(in *batchInput, dir string) (batchFiles, error) {
	fs := batchFiles{main: filepath.Join(dir, "main.col")}
	if err := colfile.WriteDataset(in.main, fs.main, colfile.WriterOptions{}); err != nil {
		return fs, err
	}
	for i, src := range in.sources {
		p := filepath.Join(dir, fmt.Sprintf("source%d.col", i))
		if err := colfile.WriteDataset(src, p, colfile.WriterOptions{}); err != nil {
			return fs, err
		}
		fs.sources = append(fs.sources, p)
	}
	return fs, nil
}

// batchRunner executes commands against the column files.
type batchRunner struct {
	files   batchFiles
	in      *batchInput
	workers int
	hseed   maphash.Seed
}

func (b *batchRunner) reqs(c command) []core.Requirement {
	return []core.Requirement{
		core.CoverageRequirement{Attrs: b.in.sens, Threshold: c.threshold},
		core.CompletenessRequirement{Sensitive: b.in.sens, MaxNullRate: c.maxNull},
	}
}

// open opens a column file as a partitioned view, under a colfile.Open
// span when traced.
func open(path string, sp *trace.Span) (*colfile.File, *dataset.Partitioned, error) {
	osp := sp.Child("colfile.Open")
	cf, err := colfile.Open(path, colfile.OpenOptions{})
	osp.End()
	if err != nil {
		return nil, nil, err
	}
	return cf, dataset.NewPartitioned(cf), nil
}

// exec runs one command the way `redi audit|query|tailor` does over column
// files — open, run, close — and returns a digest of its output. Under a
// non-nil span every call into a layer gets a span of its own.
func (b *batchRunner) exec(c command, sp *trace.Span) (uint64, error) {
	var h maphash.Hash
	h.SetSeed(b.hseed)
	if c.label == "tailor" {
		var pds []*dataset.Partitioned
		for _, p := range b.files.sources {
			cf, pd, err := open(p, sp)
			if err != nil {
				return 0, err
			}
			defer cf.Close()
			pds = append(pds, pd)
		}
		ps := sp.Child("Pipeline.Run")
		p := &core.Pipeline{
			PartitionedSources: pds, Workers: b.workers, Sensitive: b.in.sens,
			KnownDistributions: true, MaxDraws: 3_000_000, Trace: ps,
		}
		res, err := p.Run(b.in.need, nil, rng.New(c.seed))
		ps.End()
		if err != nil {
			return 0, err
		}
		if err := res.Data.WriteCSV(&h); err != nil {
			return 0, err
		}
		return h.Sum64(), nil
	}
	cf, pd, err := open(b.files.main, sp)
	if err != nil {
		return 0, err
	}
	defer cf.Close()
	if c.label == "audit" {
		rep := core.AuditPartitionedTraced(pd, b.reqs(c), b.workers, sp)
		h.WriteString(rep.String())
		return h.Sum64(), nil
	}
	cs := sp.Child("CompilePartitioned")
	pp, err := expr.CompilePartitioned(c.expr, pd)
	cs.End()
	if err != nil {
		return 0, err
	}
	if c.label == "query-count" {
		h.WriteString(strconv.Itoa(pp.CountTraced(b.workers, sp)))
		return h.Sum64(), nil
	}
	idx := pp.SelectIndicesTraced(b.workers, sp)
	as := sp.Child("AppendRowsTo")
	out := dataset.New(pd.Schema())
	err = pd.AppendRowsTo(out, idx)
	as.End()
	if err != nil {
		return 0, err
	}
	ws := sp.Child("WriteCSV")
	err = out.WriteCSV(&h)
	ws.End()
	if err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}

// expect computes a command's output digest on the in-memory path over
// the same rows: core.Audit, Compile + CountFast / Select, and the
// pipeline over in-memory sources.
func (b *batchRunner) expect(c command) (uint64, error) {
	var h maphash.Hash
	h.SetSeed(b.hseed)
	switch c.label {
	case "audit":
		h.WriteString(core.Audit(b.in.main, b.reqs(c)).String())
	case "tailor":
		p := &core.Pipeline{
			Sources: b.in.sources, Sensitive: b.in.sens, KnownDistributions: true, MaxDraws: 3_000_000,
		}
		res, err := p.Run(b.in.need, nil, rng.New(c.seed))
		if err != nil {
			return 0, err
		}
		if err := res.Data.WriteCSV(&h); err != nil {
			return 0, err
		}
	default:
		cp, err := expr.Compile(c.expr, b.in.main)
		if err != nil {
			return 0, err
		}
		if c.label == "query-count" {
			h.WriteString(strconv.Itoa(cp.CountFast()))
		} else if err := cp.Select().WriteCSV(&h); err != nil {
			return 0, err
		}
	}
	return h.Sum64(), nil
}

func runBatch(cfg config) (*result, error) {
	in, err := genBatch(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "batch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var setups []float64
	var files batchFiles
	for i := 0; i < cfg.setupReps; i++ {
		runtime.GC()
		start := obs.Now()
		files, err = writeFiles(in, dir)
		setups = append(setups, obs.Now().Sub(start).Seconds())
		if err != nil {
			return nil, err
		}
	}
	b := &batchRunner{files: files, in: in, workers: cfg.workers, hseed: maphash.MakeSeed()}
	want := make([]uint64, len(in.cmds))
	for i, c := range in.cmds {
		if want[i], err = b.expect(c); err != nil {
			return nil, fmt.Errorf("in-memory %s: %w", c.label, err)
		}
	}
	// The in-memory oracle inputs are no longer needed; drop them so the
	// heap reading shows the batch path alone.
	in.main, in.sources = nil, nil

	res := newResult()
	// check gates one command's output digest; the corrupt hook sees the
	// digest as its hex text.
	check := func(i int, got uint64) {
		res.attempted++
		text := strconv.FormatUint(got, 16)
		if cfg.corrupt != nil {
			text = string(cfg.corrupt(in.cmds[i].kind, []byte(text)))
		}
		if text != strconv.FormatUint(want[i], 16) {
			res.fail("%s %q: output differs from the in-memory path", in.cmds[i].label, in.cmds[i].expr)
		}
	}
	// cycle runs the command list once; it is one window. Whole cycles
	// keep the mix the same in every run.
	cycle := func(f *folder) (window, error) {
		var w window
		start := obs.Now()
		for i, c := range in.cmds {
			var sp *trace.Span
			if f != nil {
				sp = trace.New("cmd." + c.label)
			}
			t0 := obs.Now()
			got, err := b.exec(c, sp)
			d := obs.Now().Sub(t0)
			sp.End()
			if err != nil {
				return w, fmt.Errorf("%s: %w", c.label, err)
			}
			check(i, got)
			w.samples = append(w.samples, sample{c.kind, i, d, obs.Now().Sub(start)})
			if f != nil {
				f.fold("cmd."+c.label, sp)
			}
		}
		w.elapsed = obs.Now().Sub(start)
		return w, nil
	}

	var untraced []window
	if !cfg.trace {
		for start := obs.Now(); obs.Now().Sub(start) < cfg.seconds; {
			w, err := cycle(nil)
			if err != nil {
				return nil, err
			}
			untraced = append(untraced, w)
		}
	} else {
		f := newFolder()
		u, t, used, err := alternate(cfg.seconds,
			func() (window, error) { return cycle(nil) },
			func() (window, error) { return cycle(f) })
		if err != nil {
			return nil, err
		}
		untraced = u
		res.timingLayers(f)
		res.overhead(u, t)
		res.runtimeLayer(used, len(join(u).samples))
		res.layer["serve.rejected_ratio"] = metric{0, "ratio"}
		if err := batchExact(b, res, check); err != nil {
			return nil, err
		}
		res.exactLayers()
	}
	// Between commands the batch path holds nothing, so the heap is read
	// with the main file open: its dictionaries and whatever a command
	// keeps per open file.
	cf, _, err := open(files.main, nil)
	if err != nil {
		return nil, err
	}
	heap := liveHeapMB()
	cf.Close()
	res.endToEnd(untraced, setups, heap)
	return res, nil
}

// batchExact runs one cycle of commands with a process-wide registry
// catching every layer's counters, and tallies each command's deltas.
func batchExact(b *batchRunner, res *result, check func(int, uint64)) error {
	reg := obs.NewRegistry()
	obs.Enable(reg)
	defer obs.Enable(nil)
	for i, c := range b.in.cmds {
		before := reg.CounterValues()
		got, err := b.exec(c, nil)
		if err != nil {
			return err
		}
		check(i, got)
		delta := obs.DeltaCounters(before, reg.CounterValues())
		if c.label == "audit" {
			// The audit's only predicates are the completeness check's
			// IsNull counts and selects, so the rows they scanned are
			// the rows completeness read.
			delta["completeness.rows"] = delta["dataset.predicate_rows_scanned"]
		}
		res.addExact(c.label, delta)
	}
	return nil
}
