package core

import (
	"fmt"

	"redi/internal/dataset"
	"redi/internal/obs"
	"redi/internal/trace"
)

// PartitionedRequirement is a Requirement that can audit a partitioned
// (possibly out-of-core) view directly, partition-at-a-time, without
// materializing its rows. Implementations must be bit-identical to Check on
// the materialized rows at any worker count.
type PartitionedRequirement interface {
	Requirement
	CheckPartitioned(pd *dataset.Partitioned, workers int) CheckResult
}

// AuditPartitioned checks a partitioned view against every requirement.
// Requirements implementing PartitionedRequirement run partition-at-a-time
// with the given worker count (parallel.Workers semantics); the rest see a
// one-time materialization of the view — correct, but paying the full
// row-building cost, so hot requirements grow partitioned paths.
func AuditPartitioned(pd *dataset.Partitioned, reqs []Requirement, workers int) *AuditReport {
	return AuditPartitionedTraced(pd, reqs, workers, nil)
}

// AuditPartitionedTraced is AuditPartitioned plus one child span per
// requirement under sp ("audit.<name>", satisfied 0/1 attribute). The
// partition-at-a-time checks run untraced internally (their kernels
// already publish deterministic counters); a nil span is the untraced
// path.
func AuditPartitionedTraced(pd *dataset.Partitioned, reqs []Requirement, workers int, sp *trace.Span) *AuditReport {
	return auditPartitionedObs(pd, reqs, workers, obs.Active(nil), sp)
}

func auditPartitionedObs(pd *dataset.Partitioned, reqs []Requirement, workers int, reg *obs.Registry, sp *trace.Span) *AuditReport {
	rep := &AuditReport{}
	failed := 0
	var materialized *dataset.Dataset
	for _, req := range reqs {
		var rs *trace.Span
		if sp != nil {
			rs = sp.Child("audit." + req.Name())
		}
		var res CheckResult
		if pr, ok := req.(PartitionedRequirement); ok {
			res = pr.CheckPartitioned(pd, workers)
		} else {
			if materialized == nil {
				materialized = MaterializePartitioned(pd)
			}
			res = req.Check(materialized)
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

// MaterializePartitioned builds an in-memory dataset holding every row of
// the view — the escape hatch for row-oriented consumers. The result's
// dictionaries and codes match a dataset built by appending the same rows.
func MaterializePartitioned(pd *dataset.Partitioned) *dataset.Dataset {
	out := dataset.New(pd.Schema())
	rows := make([]int, pd.NumRows())
	for i := range rows {
		rows[i] = i
	}
	if err := pd.AppendRowsTo(out, rows); err != nil {
		panic(fmt.Sprintf("core: materializing partitioned view: %v", err))
	}
	return out
}

// CheckPartitioned implements PartitionedRequirement: null counts come
// from compiled IsNull counts over the partitions' null codes and validity
// words, and per-group counts from the null rows' bitmap over the
// partition-parallel group index — the same tallies Check produces, scored
// by the same Score.
func (r CompletenessRequirement) CheckPartitioned(pd *dataset.Partitioned, workers int) CheckResult {
	attrs := r.attrs(pd.Schema())
	t := NullTallies{Rows: pd.NumRows(), Scanned: pd.NumRows(), Attrs: attrs, Nulls: make([]int, len(attrs)), Misses: make([][]int, len(attrs))}
	for i, a := range attrs {
		pp, ok := pd.CompilePredicate(dataset.IsNull(a))
		if !ok {
			panic("core: IsNull predicate failed to compile")
		}
		t.Nulls[i] = pp.Count(workers)
		if len(r.Sensitive) == 0 || t.Nulls[i] == 0 {
			continue
		}
		if t.Groups == nil { // built once, shared by all attrs
			t.Groups = pd.GroupBy(workers, r.Sensitive...)
		}
		miss := make([]int, t.Groups.NumGroups())
		pp.SelectBitmap(workers).ForEach(func(row int) {
			if gi := t.Groups.ByRow[row]; gi >= 0 {
				miss[gi]++
			}
		})
		t.Misses[i] = miss
	}
	return r.Score(t, nil)
}

// Interface conformance: the four partition-aware requirements.
var (
	_ PartitionedRequirement = DistributionRequirement{}
	_ PartitionedRequirement = CountRequirement{}
	_ PartitionedRequirement = CoverageRequirement{}
	_ PartitionedRequirement = CompletenessRequirement{}
)
