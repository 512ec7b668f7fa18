// Package core ties REDI together: it defines the responsible-data
// requirements of tutorial §2 as auditable specifications, an audit engine
// that scores any dataset against them, and an end-to-end pipeline
// (discover → tailor → clean → audit → label) over multiple skewed sources
// — the system Example 1 of the paper asks for.
package core

import (
	"fmt"
	"math"
	"sort"

	"redi/internal/coverage"
	"redi/internal/dataset"
	"redi/internal/obs"
	"redi/internal/profile"
	"redi/internal/stats"
	"redi/internal/trace"
)

// Requirement is an auditable responsible-data requirement.
type Requirement interface {
	// Name identifies the requirement in audit reports.
	Name() string
	// Check audits d and reports the outcome.
	Check(d *dataset.Dataset) CheckResult
}

// CheckResult is the outcome of auditing one requirement.
type CheckResult struct {
	Requirement string
	Satisfied   bool
	// Score is the requirement's measured quantity (semantics per
	// requirement, e.g. TV distance or worst null rate).
	Score float64
	// Details explains the outcome for humans.
	Details string
}

// AuditReport aggregates check results.
type AuditReport struct {
	Results []CheckResult
}

// Satisfied reports whether every requirement passed.
func (r *AuditReport) Satisfied() bool {
	for _, res := range r.Results {
		if !res.Satisfied {
			return false
		}
	}
	return true
}

// String renders the report as a pass/fail table.
func (r *AuditReport) String() string {
	s := ""
	for _, res := range r.Results {
		mark := "PASS"
		if !res.Satisfied {
			mark = "FAIL"
		}
		s += fmt.Sprintf("[%s] %-28s score=%.4f  %s\n", mark, res.Requirement, res.Score, res.Details)
	}
	return s
}

// Audit checks d against every requirement.
func Audit(d *dataset.Dataset, reqs []Requirement) *AuditReport {
	return auditTracedObs(d, reqs, obs.Active(nil), nil)
}

// AuditTraced is Audit plus one child span per requirement under sp
// ("audit.<name>", with a satisfied 0/1 attribute); requirements that
// implement tracedRequirement nest their kernel spans (MUP walk,
// GroupBy) under it. A nil span is the untraced path.
func AuditTraced(d *dataset.Dataset, reqs []Requirement, sp *trace.Span) *AuditReport {
	return auditTracedObs(d, reqs, obs.Active(nil), sp)
}

// auditObs is Audit with an explicit metrics sink. The pipeline passes its
// run-private registry so audit counters land in the audit step's delta;
// the public Audit entry point uses the process-wide registry, if enabled.
func auditObs(d *dataset.Dataset, reqs []Requirement, reg *obs.Registry) *AuditReport {
	return auditTracedObs(d, reqs, reg, nil)
}

// tracedRequirement is implemented by requirements whose Check can hang
// its kernel work (MUP walks, group indexing, null scans) under a span.
// CheckTraced with a nil span must behave exactly like Check.
type tracedRequirement interface {
	CheckTraced(d *dataset.Dataset, sp *trace.Span) CheckResult
}

func auditTracedObs(d *dataset.Dataset, reqs []Requirement, reg *obs.Registry, sp *trace.Span) *AuditReport {
	rep := &AuditReport{}
	failed := 0
	for _, req := range reqs {
		var rs *trace.Span
		if sp != nil {
			rs = sp.Child("audit." + req.Name())
		}
		var res CheckResult
		if tr, ok := req.(tracedRequirement); ok {
			res = tr.CheckTraced(d, rs)
		} else {
			res = req.Check(d)
		}
		if !res.Satisfied {
			failed++
		}
		rs.SetAttr("satisfied", b2i(res.Satisfied))
		rs.End()
		rep.Results = append(rep.Results, res)
	}
	reg.Counter("core.requirements_checked").Add(int64(len(reqs)))
	reg.Counter("core.requirements_failed").Add(int64(failed))
	return rep
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// NeedForDistribution converts a target group distribution into the count
// requirements a tailoring run needs: counts proportional to the target
// shares summing to totalRows (largest-remainder rounding so the total is
// exact). It is the bridge from §2.1 distribution requirements to the DT
// problem's count inputs.
func NeedForDistribution(target map[dataset.GroupKey]float64, totalRows int) map[dataset.GroupKey]int {
	// Sorted-key iteration keeps the float total and the remainder ranking
	// bit-identical across runs (maporder).
	keys := dataset.SortedKeys(target)
	total := 0.0
	for _, k := range keys {
		if p := target[k]; p > 0 {
			total += p
		}
	}
	out := make(map[dataset.GroupKey]int, len(target))
	if total == 0 || totalRows <= 0 {
		return out
	}
	type frac struct {
		k dataset.GroupKey
		f float64
	}
	var fracs []frac
	assigned := 0
	for _, k := range keys {
		p := target[k]
		if p <= 0 {
			continue
		}
		exact := p / total * float64(totalRows)
		n := int(exact)
		out[k] = n
		assigned += n
		fracs = append(fracs, frac{k: k, f: exact - float64(n)})
	}
	// Largest remainders get the leftover rows; ties break on key for
	// determinism.
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].f != fracs[b].f {
			return fracs[a].f > fracs[b].f
		}
		return fracs[a].k < fracs[b].k
	})
	for i := 0; assigned < totalRows && i < len(fracs); i++ {
		out[fracs[i].k]++
		assigned++
	}
	return out
}

// NeedFromRemedy converts a coverage remedy plan into distribution-
// tailoring count requirements: each remedy step's fully-specified value
// combination becomes an intersectional group key over the space's
// attributes, requiring the step's count of additional rows. This closes
// the loop the tutorial sketches — audit finds uncovered patterns, the
// remedy plans what to collect, and tailoring collects it from the
// cheapest sources.
func NeedFromRemedy(space *coverage.Space, plan []coverage.RemedyStep) map[dataset.GroupKey]int {
	out := make(map[dataset.GroupKey]int, len(plan))
	for _, step := range plan {
		vals := make([]string, len(space.Attrs))
		for i, v := range step.Combination {
			// Remedy combinations are fully specified by construction.
			vals[i] = space.Domains[i][v]
		}
		out[dataset.MakeGroupKey(space.Attrs, vals)] += step.Count
	}
	return out
}

// DistributionRequirement is the Underlying Distribution Representation
// requirement (§2.1): the dataset's intersectional group distribution must
// stay within MaxTV total-variation distance of the target distribution.
type DistributionRequirement struct {
	Attrs  []string
	Target map[dataset.GroupKey]float64
	MaxTV  float64
}

// Name implements Requirement.
func (r DistributionRequirement) Name() string { return "distribution-representation" }

// Check implements Requirement.
func (r DistributionRequirement) Check(d *dataset.Dataset) CheckResult {
	return r.checkGroups(d.GroupBy(r.Attrs...))
}

// CheckTraced implements tracedRequirement: the group indexing lands in
// a "dataset.groupby" span under sp.
func (r DistributionRequirement) CheckTraced(d *dataset.Dataset, sp *trace.Span) CheckResult {
	return r.checkGroups(d.GroupByTraced(sp, r.Attrs...))
}

// CheckPartitioned implements PartitionedRequirement: the group index comes
// from the partition-parallel GroupBy, which is bit-identical to the
// in-memory one, so the TV distance is too.
func (r DistributionRequirement) CheckPartitioned(pd *dataset.Partitioned, workers int) CheckResult {
	return r.checkGroups(pd.GroupBy(workers, r.Attrs...))
}

func (r DistributionRequirement) checkGroups(groups *dataset.Groups) CheckResult {
	res := CheckResult{Requirement: r.Name()}
	// Align the observed distribution with the target's key set: keys
	// absent from the data get probability 0 and vice versa.
	keySet := map[dataset.GroupKey]bool{}
	for k := range r.Target {
		keySet[k] = true
	}
	for _, k := range groups.Keys() {
		keySet[k] = true
	}
	total := 0
	for _, c := range groups.Counts {
		total += c
	}
	// The aligned p/q vectors feed a float sum; build them in sorted key
	// order so the TV distance is bit-identical across runs (maporder).
	var p, q []float64
	for _, k := range dataset.SortedKeys(keySet) {
		q = append(q, r.Target[k])
		if total > 0 {
			p = append(p, float64(groups.Count(k))/float64(total))
		} else {
			p = append(p, 0)
		}
	}
	res.Score = stats.TotalVariation(p, q)
	res.Satisfied = res.Score <= r.MaxTV
	res.Details = fmt.Sprintf("TV distance %.4f (max %.4f)", res.Score, r.MaxTV)
	return res
}

// CountRequirement is the Group Representation requirement (§2.2) in DT
// form: each listed group must have at least its required count of rows.
type CountRequirement struct {
	Attrs []string
	Min   map[dataset.GroupKey]int
}

// Name implements Requirement.
func (r CountRequirement) Name() string { return "group-counts" }

// Check implements Requirement.
func (r CountRequirement) Check(d *dataset.Dataset) CheckResult {
	return r.checkGroups(d.GroupBy(r.Attrs...))
}

// CheckTraced implements tracedRequirement.
func (r CountRequirement) CheckTraced(d *dataset.Dataset, sp *trace.Span) CheckResult {
	return r.checkGroups(d.GroupByTraced(sp, r.Attrs...))
}

// CheckPartitioned implements PartitionedRequirement.
func (r CountRequirement) CheckPartitioned(pd *dataset.Partitioned, workers int) CheckResult {
	return r.checkGroups(pd.GroupBy(workers, r.Attrs...))
}

func (r CountRequirement) checkGroups(groups *dataset.Groups) CheckResult {
	res := CheckResult{Requirement: r.Name(), Satisfied: true}
	worst := math.Inf(1)
	// Sorted keys keep the failing-group listing in Details stable
	// (maporder flags the string accumulation below otherwise).
	for _, k := range dataset.SortedKeys(r.Min) {
		min := r.Min[k]
		got := groups.Count(k)
		ratio := 1.0
		if min > 0 {
			ratio = float64(got) / float64(min)
		}
		if ratio < worst {
			worst = ratio
		}
		if got < min {
			res.Satisfied = false
			res.Details += fmt.Sprintf("%s: %d/%d; ", k, got, min)
		}
	}
	if math.IsInf(worst, 1) {
		worst = 1
	}
	res.Score = worst
	if res.Satisfied {
		res.Details = "all group counts met"
	}
	return res
}

// CoverageRequirement is the data-coverage form of Group Representation:
// the dataset must have no maximal uncovered patterns at the threshold.
type CoverageRequirement struct {
	Attrs     []string
	Threshold int
}

// Name implements Requirement.
func (r CoverageRequirement) Name() string { return "coverage" }

// Check implements Requirement.
func (r CoverageRequirement) Check(d *dataset.Dataset) CheckResult {
	space := coverage.NewSpace(d, r.Attrs, r.Threshold)
	return r.checkSpace(space, space.MUPs())
}

// CheckTraced implements tracedRequirement: the MUP walk lands in a
// "coverage.mup_walk" span under sp with the walk's per-level tallies.
func (r CoverageRequirement) CheckTraced(d *dataset.Dataset, sp *trace.Span) CheckResult {
	space := coverage.NewSpace(d, r.Attrs, r.Threshold)
	return r.checkSpace(space, space.MUPsTraced(0, sp))
}

// CheckPartitioned implements PartitionedRequirement: the space is built
// partition-at-a-time and the MUP walk sharded over workers; both are
// bit-identical to the in-memory path.
func (r CoverageRequirement) CheckPartitioned(pd *dataset.Partitioned, workers int) CheckResult {
	space := coverage.NewSpacePartitioned(pd, r.Attrs, r.Threshold, workers)
	return r.checkSpace(space, space.MUPsParallel(workers))
}

// CheckSpace evaluates the requirement against an already-built — e.g.
// incrementally maintained — pattern space instead of deriving one from a
// dataset, sharded over workers. The space's threshold is set from the
// requirement before the walk; the caller must hold exclusive access to the
// space for the duration (the MUP walk uses the space's shared bitmap
// pool). Results are bit-identical to Check on a dataset with the same rows.
func (r CoverageRequirement) CheckSpace(space *coverage.Space, workers int) CheckResult {
	return r.CheckSpaceTraced(space, workers, nil)
}

// CheckSpaceTraced is CheckSpace plus the walk's "coverage.mup_walk"
// span under sp. A nil span is the untraced path.
func (r CoverageRequirement) CheckSpaceTraced(space *coverage.Space, workers int, sp *trace.Span) CheckResult {
	space.Threshold = r.Threshold
	return r.checkSpace(space, space.MUPsTraced(workers, sp))
}

func (r CoverageRequirement) checkSpace(space *coverage.Space, mups []coverage.MUP) CheckResult {
	res := CheckResult{Requirement: r.Name()}
	res.Score = float64(len(mups))
	res.Satisfied = len(mups) == 0
	if res.Satisfied {
		res.Details = fmt.Sprintf("no uncovered patterns at threshold %d", r.Threshold)
	} else {
		res.Details = fmt.Sprintf("%d MUPs, e.g. %s", len(mups), space.Describe(mups[0].Pattern))
	}
	return res
}

// FeatureBiasRequirement is the Unbiased and Informative Features
// requirement (§2.3): at least MinFeatures feature attributes must have
// sensitive association at most MaxAssoc while correlating with the target
// by at least MinCorr.
type FeatureBiasRequirement struct {
	Features    []string
	Sensitive   []string
	Target      string
	Positive    string
	MaxAssoc    float64
	MinCorr     float64
	MinFeatures int
}

// Name implements Requirement.
func (r FeatureBiasRequirement) Name() string { return "unbiased-informative-features" }

// Check implements Requirement.
func (r FeatureBiasRequirement) Check(d *dataset.Dataset) CheckResult {
	res := CheckResult{Requirement: r.Name()}
	min := r.MinFeatures
	if min == 0 {
		min = 1
	}
	positive := r.Positive
	if positive == "" {
		positive = "pos"
	}
	ranked := profile.RankAttrBias(d, r.Features, r.Sensitive, r.Target, positive)
	good := 0
	bestCorr := 0.0
	for _, b := range ranked {
		if b.SensitiveAssoc <= r.MaxAssoc && b.TargetCorr >= r.MinCorr {
			good++
			if b.TargetCorr > bestCorr {
				bestCorr = b.TargetCorr
			}
		}
	}
	res.Score = float64(good)
	res.Satisfied = good >= min
	res.Details = fmt.Sprintf("%d/%d features unbiased (assoc<=%.2f) and informative (corr>=%.2f)",
		good, len(ranked), r.MaxAssoc, r.MinCorr)
	return res
}

// CompletenessRequirement is the Completeness half of §2.4: every listed
// attribute's null rate must stay at or below MaxNullRate, both overall
// and within every demographic group (so that missingness cannot hide in a
// minority).
//
// Scoring is split from counting. Three producers count nulls — Check on
// an in-memory dataset, CheckPartitioned partition-at-a-time, and the
// serving layer's tallies advanced on ingest — and all of them hand their
// NullTallies to the one scorer, Score, so their verdicts agree by
// construction.
type CompletenessRequirement struct {
	Attrs       []string // empty means every attribute
	Sensitive   []string
	MaxNullRate float64
}

// DefaultMaxNullRate is the completeness bound the CLI and the serving
// layer use when none is given.
const DefaultMaxNullRate = 0.05

// NullTallies is a completeness producer's output: null counts per audited
// attribute and, when the requirement has sensitive attributes, per
// (attribute, group) over a group index of the same rows.
type NullTallies struct {
	// Rows is the number of rows the tallies cover.
	Rows int
	// Scanned is the number of rows the producer read to build the tallies:
	// Rows for a cold count, 0 for tallies maintained on ingest.
	Scanned int
	// Attrs are the audited attributes in scoring order.
	Attrs []string
	// Nulls[i] is the number of null cells of Attrs[i].
	Nulls []int
	// Misses[i][gid] is the number of null cells of Attrs[i] among the rows
	// of group gid. It is read only where Nulls[i] > 0 and Groups is set.
	Misses [][]int
	// Groups indexes the rows by the requirement's sensitive attributes
	// (nil: no per-group breakdown).
	Groups *dataset.Groups
}

// Name implements Requirement.
func (r CompletenessRequirement) Name() string { return "completeness" }

// Check implements Requirement: compiled null-mask counts per attribute,
// then, for attributes with nulls, a per-group null tally from the column's
// null storage against one shared group index.
func (r CompletenessRequirement) Check(d *dataset.Dataset) CheckResult {
	return r.Score(r.tally(d), nil)
}

// CheckTraced implements tracedRequirement; the span's "rows" attribute is
// every row of d, all of which the cold count scans.
func (r CompletenessRequirement) CheckTraced(d *dataset.Dataset, sp *trace.Span) CheckResult {
	return r.Score(r.tally(d), sp)
}

func (r CompletenessRequirement) attrs(s *dataset.Schema) []string {
	if len(r.Attrs) == 0 {
		return s.Names()
	}
	return r.Attrs
}

func (r CompletenessRequirement) tally(d *dataset.Dataset) NullTallies {
	attrs := r.attrs(d.Schema())
	t := NullTallies{Rows: d.NumRows(), Scanned: d.NumRows(), Attrs: attrs, Nulls: make([]int, len(attrs)), Misses: make([][]int, len(attrs))}
	for i, a := range attrs {
		// Compiled null-mask count: one fused scan over the column's codes
		// or null mask instead of a per-row Value walk.
		t.Nulls[i] = d.Count(dataset.IsNull(a))
		if len(r.Sensitive) == 0 || t.Nulls[i] == 0 {
			continue
		}
		if t.Groups == nil {
			t.Groups = d.GroupBy(r.Sensitive...)
		}
		t.Misses[i] = make([]int, t.Groups.NumGroups())
		d.NullsRange(a, 0, t.Rows, t.Groups.ByRow, t.Misses[i])
	}
	return t
}

// Score turns null tallies into the completeness verdict: the worst null
// rate over every attribute overall and within every non-empty group.
// Attributes are visited in order, each one's overall rate before its
// groups, and groups in ascending gid (= ascending key) order; only a
// strictly greater rate replaces the worst, so ties report the first
// attribute and the lexicographically first group. A non-nil span gets
// "attrs_checked" (len(t.Attrs)) and "rows" (t.Scanned) attributes.
func (r CompletenessRequirement) Score(t NullTallies, sp *trace.Span) CheckResult {
	sp.SetAttr("attrs_checked", int64(len(t.Attrs)))
	sp.SetAttr("rows", int64(t.Scanned))
	res := CheckResult{Requirement: r.Name()}
	worst := 0.0
	worstAt := ""
	for i, a := range t.Attrs {
		rate := 0.0
		if t.Rows > 0 {
			rate = float64(t.Nulls[i]) / float64(t.Rows)
		}
		if rate > worst {
			worst, worstAt = rate, a
		}
		if t.Groups == nil || t.Nulls[i] == 0 {
			continue
		}
		for gid, n := range t.Groups.Counts {
			if n == 0 {
				continue
			}
			if frac := float64(t.Misses[i][gid]) / float64(n); frac > worst {
				worst, worstAt = frac, fmt.Sprintf("%s within %s", a, t.Groups.Key(gid))
			}
		}
	}
	res.Score = worst
	res.Satisfied = worst <= r.MaxNullRate
	res.Details = fmt.Sprintf("worst null rate %.4f at %s (max %.4f)", worst, worstAt, r.MaxNullRate)
	if worstAt == "" {
		res.Details = "no nulls"
	}
	return res
}
