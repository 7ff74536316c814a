package benchio

import (
	"strings"
	"testing"
)

func rep(entries ...Entry) *Report { return &Report{Entries: entries} }

func entry(name string, ns float64) Entry {
	return Entry{Name: name, Iterations: 10, NsPerOp: ns, BytesPerOp: -1, AllocsPerOp: -1}
}

func TestDiffVerdicts(t *testing.T) {
	oldRep := rep(
		entry("BenchmarkA-8", 100),
		entry("BenchmarkB-8", 100),
		entry("BenchmarkC-8", 100),
		entry("BenchmarkGone-8", 100),
	)
	newRep := rep(
		entry("BenchmarkA-8", 105), // +5% — inside the 10% noise floor
		entry("BenchmarkB-8", 130), // +30% — regression
		entry("BenchmarkC-8", 60),  // -40% — improvement
		entry("BenchmarkNew-8", 42),
	)
	res := Diff(oldRep, newRep, DiffOptions{Threshold: 0.10})
	want := map[string]Verdict{
		"BenchmarkA-8":    Unchanged,
		"BenchmarkB-8":    Regression,
		"BenchmarkC-8":    Improvement,
		"BenchmarkNew-8":  Added,
		"BenchmarkGone-8": Removed,
	}
	if len(res.Entries) != len(want) {
		t.Fatalf("got %d rows, want %d:\n%s", len(res.Entries), len(want), res)
	}
	for _, e := range res.Entries {
		if e.Verdict != want[e.Name] {
			t.Errorf("%s: verdict %s, want %s", e.Name, e.Verdict, want[e.Name])
		}
	}
	if res.Regressions != 1 || res.Improvements != 1 {
		t.Fatalf("regressions=%d improvements=%d, want 1/1", res.Regressions, res.Improvements)
	}
	// Added/removed entries never count as regressions.
	out := res.String()
	if !strings.Contains(out, "1 regression(s), 1 improvement(s)") {
		t.Errorf("summary line missing:\n%s", out)
	}
}

// TestDiffAcrossCoreCounts: go test names an entry "BenchmarkA" at
// GOMAXPROCS 1 and "BenchmarkA-2" at 2; the two must still pair up.
func TestDiffAcrossCoreCounts(t *testing.T) {
	oldRep := rep(entry("BenchmarkA", 100), entry("BenchmarkB/workers=2", 100))
	oldRep.GoMaxProcs = 1
	newRep := rep(entry("BenchmarkA-2", 50), entry("BenchmarkB/workers=2-2", 100))
	newRep.GoMaxProcs = 2
	res := Diff(oldRep, newRep, DiffOptions{})
	if len(res.Entries) != 2 {
		t.Fatalf("got %d rows, want 2 paired rows:\n%s", len(res.Entries), res)
	}
	if res.Entries[0].Verdict != Improvement || res.Entries[1].Verdict != Unchanged {
		t.Fatalf("verdicts %s/%s, want improvement/unchanged:\n%s",
			res.Entries[0].Verdict, res.Entries[1].Verdict, res)
	}
}

func TestDiffDefaultThreshold(t *testing.T) {
	res := Diff(rep(entry("BenchmarkA-8", 100)), rep(entry("BenchmarkA-8", 109)), DiffOptions{})
	if res.Threshold != 0.10 {
		t.Fatalf("default threshold = %v", res.Threshold)
	}
	if res.Regressions != 0 {
		t.Fatalf("+9%% counted as a regression under the 10%% default:\n%s", res)
	}
}

func TestDiffMemoryColumns(t *testing.T) {
	oldE := entry("BenchmarkA-8", 100)
	oldE.BytesPerOp, oldE.AllocsPerOp = 1000, 10
	newE := entry("BenchmarkA-8", 100)
	newE.BytesPerOp, newE.AllocsPerOp = 2000, 10
	res := Diff(rep(oldE), rep(newE), DiffOptions{Threshold: 0.10})
	var cols []string
	for _, e := range res.Entries {
		cols = append(cols, e.Column+":"+string(e.Verdict))
	}
	got := strings.Join(cols, " ")
	if got != "ns/op:unchanged B/op:regression allocs/op:unchanged" {
		t.Fatalf("columns = %s", got)
	}
}

func TestDiffCustomMetrics(t *testing.T) {
	oldE := entry("BenchmarkA-8", 100)
	oldE.Metrics = map[string]float64{"range-queries/op": 1000, "old-only/op": 5}
	newE := entry("BenchmarkA-8", 100)
	newE.Metrics = map[string]float64{"range-queries/op": 2000, "new-only/op": 7}
	// Without opts.Metrics custom columns are ignored.
	if res := Diff(rep(oldE), rep(newE), DiffOptions{}); len(res.Entries) != 1 {
		t.Fatalf("custom metrics compared without -metrics:\n%s", res)
	}
	res := Diff(rep(oldE), rep(newE), DiffOptions{Metrics: true})
	if len(res.Entries) != 2 {
		t.Fatalf("want ns/op + shared metric, got:\n%s", res)
	}
	if res.Entries[1].Column != "range-queries/op" || res.Entries[1].Verdict != Regression {
		t.Fatalf("shared metric row = %+v", res.Entries[1])
	}
}

func TestDiffZeroOldValue(t *testing.T) {
	// A zero baseline must not divide by zero or fabricate a verdict.
	res := Diff(rep(entry("BenchmarkA-8", 0)), rep(entry("BenchmarkA-8", 50)), DiffOptions{})
	if res.Entries[0].Delta != 0 || res.Entries[0].Verdict != Unchanged {
		t.Fatalf("zero-baseline row = %+v", res.Entries[0])
	}
}

func TestDiffRoundTripThroughJSON(t *testing.T) {
	// A report written by Write must come back identical through Read —
	// the committed-artifact path cmd/benchdiff exercises.
	rep1, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := Write(&buf, rep1); err != nil {
		t.Fatal(err)
	}
	rep2, err := Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	res := Diff(rep1, rep2, DiffOptions{Metrics: true})
	if res.Regressions != 0 || res.Improvements != 0 {
		t.Fatalf("self-diff not clean:\n%s", res)
	}
	for _, e := range res.Entries {
		if e.Verdict != Unchanged {
			t.Fatalf("self-diff row %s %s = %s", e.Name, e.Column, e.Verdict)
		}
	}
}
