package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"text/tabwriter"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one round or one upload share a trace id.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for a root span
	Name    string  `json:"name"`
	Trace   string  `json:"trace"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	SelfUS  float64 `json:"self_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run pays no tracing cost.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
	open  []time.Time
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name, trace string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Trace: trace, StartUS: us(now.Sub(t.base))})
	t.open = append(t.open, now)
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndUS = us(now.Sub(t.base))
	return now.Sub(t.open[id])
}

// finish computes every span's self time: its duration minus the part of
// its interval that its children cover.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := append([]span(nil), t.spans...)
	for i := range out {
		out[i].SelfUS = selfTime(out[i], children[out[i].ID])
	}
	return out
}

// selfTime is the duration of s not covered by the union of its children.
func selfTime(s span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
	covered, reach := 0.0, s.StartUS
	for _, k := range kids {
		lo, hi := max(k.StartUS, reach), min(k.EndUS, s.EndUS)
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return s.EndUS - s.StartUS - covered
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTable aggregates spans by name, largest self time first.
func selfTable(spans []span) []layerRow {
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalMS += (s.EndUS - s.StartUS) / 1000
		r.SelfMS += s.SelfUS / 1000
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

func printTable(w io.Writer, rows []layerRow) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\tcount\ttotal ms\tself ms\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t\n", r.Name, r.Count, r.TotalMS, r.SelfMS)
	}
	tw.Flush()
}

// traceDump is the file a traced run leaves behind.
type traceDump struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Host      string             `json:"host"`
	Layers    map[string]float64 `json:"layers"`
	SelfTimes []layerRow         `json:"self_times"`
	Spans     []span             `json:"spans"`
}

func writeDump(path string, d *traceDump) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
