package dataset

import "fmt"

// Snapshot returns an immutable copy-on-write view of the dataset's current
// rows. The view shares column storage with the live dataset — code vectors,
// value/null vectors, and categorical dictionaries are aliased, not copied —
// extending the dictionary-level COW that gather/clone already use to whole
// columns. Taking a snapshot is O(columns), independent of row count.
//
// Isolation contract:
//
//   - The snapshot's columns are capped three-index slices ([:n:n]), so
//     appends to the live dataset land strictly beyond every snapshot's
//     length and can never appear through the view — readers see exactly
//     the rows that existed at snapshot time, never a torn row.
//   - In-place mutation of a pre-snapshot row (SetValue, cleaning repairs)
//     materializes private storage on the live column first; the snapshot
//     keeps the original bytes.
//   - Dictionary growth on the live side goes through the shared-dict COW
//     path (materializeDict), so the snapshot's dict/index stay frozen.
//
// Snapshot mutates the live columns' shared/frozen bookkeeping, so it must
// be called from the single writer — the serving layer takes snapshots under
// its ingest lock. The returned view itself is safe for concurrent readers
// (including Gather/Clone, which only read row storage), but it is a
// *Dataset like any other: appending to it is permitted and detaches it
// (capacity is capped, so the first append reallocates privately) without
// ever touching the live dataset's tail.
func (d *Dataset) Snapshot() *Dataset {
	out := &Dataset{schema: d.schema, cols: make([]column, len(d.cols)), n: d.n}
	for i, c := range d.cols {
		out.cols[i] = c.snapshot()
	}
	return out
}

// CodesRange returns the dictionary codes of rows [lo, hi) of a categorical
// attribute (-1 marks null) plus the full current dictionary. Unlike Codes
// it does not copy: both slices alias column storage, which is what the
// incremental index-maintenance paths need to visit only freshly appended
// rows. The caller must treat both slices as read-only and must not hold
// them across subsequent mutations of the dataset. It panics if the
// attribute is unknown or not categorical, or if the range is out of bounds.
func (d *Dataset) CodesRange(attr string, lo, hi int) (codes []int32, dict []string) {
	i := d.schema.MustIndex(attr)
	col, ok := d.cols[i].(*catColumn)
	if !ok {
		panic(fmt.Sprintf("dataset: attribute %q is not categorical", attr))
	}
	return col.codes[lo:hi:hi], col.dict
}

// NullsRange counts the null cells of attr in rows [lo, hi), reading the
// column's null storage directly (categorical -1 codes or the numeric null
// mask). When byRow is non-nil it also tallies every null row r with
// byRow[r] >= 0 into miss[byRow[r]] — per-group missingness in the same
// pass, with byRow a Groups.ByRow over the same rows. It panics if the
// attribute is unknown or the range is out of bounds.
func (d *Dataset) NullsRange(attr string, lo, hi int, byRow []int32, miss []int) int {
	nulls := 0
	tally := func(r int) {
		nulls++
		if byRow != nil {
			if g := byRow[r]; g >= 0 {
				miss[g]++
			}
		}
	}
	switch c := d.cols[d.schema.MustIndex(attr)].(type) {
	case *catColumn:
		for r, code := range c.codes[lo:hi] {
			if code < 0 {
				tally(lo + r)
			}
		}
	case *numColumn:
		for r, null := range c.nulls[lo:hi] {
			if null {
				tally(lo + r)
			}
		}
	}
	return nulls
}
