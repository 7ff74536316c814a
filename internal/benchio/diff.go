package benchio

import (
	"fmt"
	"sort"
	"strings"
)

// Verdict classifies one compared benchmark column.
type Verdict string

const (
	// Unchanged: the relative delta stayed within the noise threshold.
	Unchanged Verdict = "unchanged"
	// Improvement: the value dropped by more than the threshold (all
	// compared columns are costs — ns/op, B/op, allocs/op — so down is good).
	Improvement Verdict = "improvement"
	// Regression: the value grew by more than the threshold.
	Regression Verdict = "regression"
	// Added: the entry exists only in the new report.
	Added Verdict = "added"
	// Removed: the entry exists only in the old report.
	Removed Verdict = "removed"
)

// DiffEntry is one compared column of one benchmark present in either
// report.
type DiffEntry struct {
	// Name is the full benchmark name (with the -GOMAXPROCS suffix).
	Name string `json:"name"`
	// Column is the compared unit: "ns/op", "B/op", "allocs/op" or a
	// custom b.ReportMetric unit.
	Column string `json:"column"`
	// Old and New are the column values; NaN-free — Added/Removed rows
	// carry the side that exists and 0 on the other.
	Old float64 `json:"old"`
	New float64 `json:"new"`
	// Delta is (New-Old)/Old; 0 when Old is 0.
	Delta   float64 `json:"delta"`
	Verdict Verdict `json:"verdict"`
}

// DiffResult is the outcome of comparing two reports.
type DiffResult struct {
	// Threshold is the relative noise floor the verdicts used.
	Threshold float64     `json:"threshold"`
	Entries   []DiffEntry `json:"entries"`
	// Regressions and Improvements count the beyond-threshold rows.
	Regressions  int `json:"regressions"`
	Improvements int `json:"improvements"`
}

// DiffOptions tunes Diff.
type DiffOptions struct {
	// Threshold is the relative change below which a delta counts as
	// noise; <= 0 means 0.10 (10%). Single-iteration runs (bench-smoke)
	// are essentially all noise, so callers diffing those should raise it
	// or treat the output as informational.
	Threshold float64
	// Metrics additionally compares every custom b.ReportMetric unit the
	// two entries share. ns/op, B/op and allocs/op are always compared.
	Metrics bool
}

// Diff compares two parsed benchmark reports entry by entry and classifies
// each shared column against the relative noise threshold. Entries pair up
// by name without the -GOMAXPROCS suffix (see benchKey), so artifacts from
// hosts with different core counts still compare; the host warnings flag
// such diffs. Entries present on only one side are reported as
// Added/Removed and never fail a diff. The entry order follows the new
// report, removed entries last.
func Diff(oldRep, newRep *Report, opts DiffOptions) *DiffResult {
	threshold := opts.Threshold
	if threshold <= 0 {
		threshold = 0.10
	}
	res := &DiffResult{Threshold: threshold}
	oldByName := make(map[string]*Entry, len(oldRep.Entries))
	for i := range oldRep.Entries {
		oldByName[benchKey(oldRep, oldRep.Entries[i].Name)] = &oldRep.Entries[i]
	}
	seen := make(map[string]bool, len(newRep.Entries))
	for i := range newRep.Entries {
		ne := &newRep.Entries[i]
		key := benchKey(newRep, ne.Name)
		seen[key] = true
		oe, ok := oldByName[key]
		if !ok {
			res.Entries = append(res.Entries, DiffEntry{
				Name: ne.Name, Column: "ns/op", New: ne.NsPerOp, Verdict: Added,
			})
			continue
		}
		res.compare(ne.Name, "ns/op", oe.NsPerOp, ne.NsPerOp)
		if oe.BytesPerOp >= 0 && ne.BytesPerOp >= 0 {
			res.compare(ne.Name, "B/op", oe.BytesPerOp, ne.BytesPerOp)
		}
		if oe.AllocsPerOp >= 0 && ne.AllocsPerOp >= 0 {
			res.compare(ne.Name, "allocs/op", oe.AllocsPerOp, ne.AllocsPerOp)
		}
		if opts.Metrics {
			units := make([]string, 0, len(ne.Metrics))
			for unit := range ne.Metrics {
				if _, shared := oe.Metrics[unit]; shared {
					units = append(units, unit)
				}
			}
			sort.Strings(units)
			for _, unit := range units {
				res.compare(ne.Name, unit, oe.Metrics[unit], ne.Metrics[unit])
			}
		}
	}
	for i := range oldRep.Entries {
		if oe := &oldRep.Entries[i]; !seen[benchKey(oldRep, oe.Name)] {
			res.Entries = append(res.Entries, DiffEntry{
				Name: oe.Name, Column: "ns/op", Old: oe.NsPerOp, Verdict: Removed,
			})
		}
	}
	return res
}

// benchKey is an entry's name without the -GOMAXPROCS suffix go test
// appends when GOMAXPROCS > 1.
func benchKey(rep *Report, name string) string {
	if rep.GoMaxProcs > 1 {
		return strings.TrimSuffix(name, fmt.Sprintf("-%d", rep.GoMaxProcs))
	}
	return name
}

// compare appends one classified column row.
func (r *DiffResult) compare(name, column string, oldVal, newVal float64) {
	e := DiffEntry{Name: name, Column: column, Old: oldVal, New: newVal}
	if oldVal != 0 {
		e.Delta = (newVal - oldVal) / oldVal
	}
	switch {
	case e.Delta > r.Threshold:
		e.Verdict = Regression
		r.Regressions++
	case e.Delta < -r.Threshold:
		e.Verdict = Improvement
		r.Improvements++
	default:
		e.Verdict = Unchanged
	}
	r.Entries = append(r.Entries, e)
}

// String renders the diff as an aligned table with a one-line summary,
// the cmd/benchdiff output format.
func (r *DiffResult) String() string {
	var b strings.Builder
	w := 4
	for _, e := range r.Entries {
		if len(e.Name) > w {
			w = len(e.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s  %-11s  %14s  %14s  %8s  %s\n", w, "name", "column", "old", "new", "delta", "verdict")
	for _, e := range r.Entries {
		switch e.Verdict {
		case Added:
			fmt.Fprintf(&b, "%-*s  %-11s  %14s  %14.4g  %8s  %s\n", w, e.Name, e.Column, "-", e.New, "-", e.Verdict)
		case Removed:
			fmt.Fprintf(&b, "%-*s  %-11s  %14.4g  %14s  %8s  %s\n", w, e.Name, e.Column, e.Old, "-", "-", e.Verdict)
		default:
			fmt.Fprintf(&b, "%-*s  %-11s  %14.4g  %14.4g  %+7.1f%%  %s\n", w, e.Name, e.Column, e.Old, e.New, 100*e.Delta, e.Verdict)
		}
	}
	fmt.Fprintf(&b, "%d regression(s), %d improvement(s) beyond ±%.0f%%\n",
		r.Regressions, r.Improvements, 100*r.Threshold)
	return b.String()
}
