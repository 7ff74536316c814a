// Command e2ebench is the whole-system benchmark of the DBDC repository. It
// drives networked rounds and a streaming deployment with concurrent reads
// through the production code paths in one process, checks their outputs
// and prints one JSON result line. See README.md for the workloads and the
// metrics.
//
//	bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 it runs an untraced half and a traced half of --seconds,
// reports the per-layer metrics from the traced half plus the tracing
// overhead, and writes the span dump to $E2EBENCH_OUT/traces.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/dbdc-go/dbdc/internal/benchio"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
)

// benchConfig is the deployment every workload runs: the CLI defaults with
// data set A's parameters (R*-tree local index, REP_Scor, one worker per
// site).
var benchConfig = dbdc.Config{Local: dbscan.Params{Eps: 1.2, MinPts: 4}, SiteWorkers: 1}

// pass is one measured pass over a workload.
type pass struct {
	seed int64
	dur  time.Duration
	tr   *tracer // nil in the untraced pass
}

// passResult is what a pass measured and checked.
type passResult struct {
	attempted, failed int
	// failures lists the output checks that did not hold.
	failures []string
	// e2e holds the end-to-end metrics by name, layers the per-layer ones
	// (traced pass only).
	e2e    map[string]float64
	layers map[string]float64
	// primaryMS is the pass's headline time per operation, compared
	// between the untraced and the traced pass to give the tracing cost.
	primaryMS float64
	// notes are human-readable lines printed before the result.
	notes []string
}

func (r *passResult) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// timing stores a distribution as <name>.p50 and <name>.tail and notes the
// tail's percentile and sample count next to it.
func (r *passResult) timing(name string, samples []float64) {
	if len(samples) == 0 {
		r.fail("%s: no samples", name)
		return
	}
	s := summarize(samples)
	r.e2e[name+".p50"] = s.P50
	r.e2e[name+".tail"] = s.Tail
	r.notes = append(r.notes, fmt.Sprintf("%s: p50 %.4g, tail p%.4g %.4g, n=%d", name, s.P50, s.TailPct, s.Tail, s.N))
}

type workload func(pass) (*passResult, error)

var workloads = map[string]workload{
	"round-spatial-100k": roundsWorkload{n: 100000, spatial: true, checked: 3}.run,
	"round-random-8k7":   roundsWorkload{n: 8700, spatial: false}.run,
	"stream-classify":    runStream,
}

// endToEnd lists the end-to-end metrics with their units, in output order.
var endToEnd = []struct{ name, unit string }{
	{"round_ms.p50", "ms"}, {"round_ms.tail", "ms"},
	{"uplink_bytes", "bytes"}, {"downlink_bytes", "bytes"},
	{"quality_pii", "ratio"}, {"ingest_pts_per_s", "1/s"},
	{"freshness_ms.p50", "ms"}, {"freshness_ms.tail", "ms"},
	{"classify_ms.p50", "ms"}, {"classify_ms.tail", "ms"},
	{"heap_peak_mb", "MiB"}, {"success_frac", "ratio"}, {"setup_s", "s"},
}

// perLayer lists the per-layer metrics with their units. A layer a
// workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"dbdc.local_step_ms.max", "ms"}, {"dbdc.local_step_ms.skew", "ratio"},
	{"dbscan.cluster_ms.max", "ms"}, {"dbscan.condense_ms.max", "ms"},
	{"dbscan.range_queries", "count"},
	{"model.reps_local", "count"}, {"model.encode_us", "us"}, {"model.decode_us", "us"},
	{"transport.exchange_ms.min", "ms"}, {"transport.wait_ms.max", "ms"},
	{"dbdc.global_step_ms", "ms"}, {"model.global_reps", "count"}, {"model.global_clusters", "count"},
	{"dbdc.relabel_ms.max", "ms"}, {"dbdc.relabel_reps", "count"},
	{"incdbscan.ingest_us.p50", "us"}, {"incdbscan.ingest_us.tail", "us"},
	{"stream.check_ms.p50", "ms"}, {"stream.rebuild_ms.p50", "ms"},
	{"stream.upload_frac", "ratio"}, {"stream.uploads", "count"}, {"stream.resyncs", "count"},
	{"transport.upload_ms.p50", "ms"},
	{"serve.publish_ms.p50", "ms"}, {"serve.versions", "count"}, {"serve.classify_reps", "count"},
	{"loadgen.late_ms.max", "ms"}, {"loadgen.max_queue", "count"},
	{"trace.overhead_frac", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 = report per-layer metrics from a traced pass")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: e2ebench --workload %v --seed n --seconds s --trace 0|1\n", names)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	var stamp benchio.Report
	benchio.StampHost(&stamp)
	host := stamp.Host()
	fmt.Printf("host: %s; workload %s, seed %d\n", host, *name, *seed)

	res, err := measure(w, *name, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, host)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res) // maps of plain values: cannot fail
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// measure runs the workload and assembles the result line.
func measure(w workload, name string, seed int64, dur time.Duration, traced bool, host string) (*result, error) {
	passes := []pass{{seed: seed, dur: dur}}
	if traced {
		passes = []pass{{seed: seed, dur: dur / 2}, {seed: seed, dur: dur / 2, tr: newTracer()}}
	}
	var outs []*passResult
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, p := range passes {
		out, err := w(p)
		if err != nil {
			return nil, err
		}
		for _, n := range out.notes {
			fmt.Printf("%s: %s\n", passName(p), n)
		}
		for _, f := range out.failures {
			fmt.Printf("%s: CHECK FAILED: %s\n", passName(p), f)
			res.Correct = false
		}
		res.Attempted += out.attempted
		res.Failed += out.failed
		outs = append(outs, out)
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	if !traced {
		outs[0].e2e["success_frac"] = 1 - float64(res.Failed)/float64(res.Attempted)
		for _, m := range endToEnd {
			v, ok := outs[0].e2e[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("metric %s not measured", m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		return res, nil
	}
	base, tr := outs[0], outs[1]
	tr.layers["trace.overhead_frac"] = tr.primaryMS/base.primaryMS - 1
	spans := passes[1].tr.finish()
	for _, m := range perLayer {
		v := tr.layers[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Printf("%s: no samples, reported as 0\n", m.name)
			v = 0
		}
		tr.layers[m.name] = v
		res.Metrics[m.name] = metric{v, m.unit}
	}
	fmt.Printf("tracing overhead: %+.2f%% (%.4g ms traced vs %.4g ms untraced per operation)\n",
		100*tr.layers["trace.overhead_frac"], tr.primaryMS, base.primaryMS)
	rows := selfTable(spans)
	printTable(os.Stdout, rows)
	dir := filepath.Join(outDir(), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	dump := &traceDump{Workload: name, Seed: seed, Host: host, Layers: tr.layers, SelfTimes: rows, Spans: spans}
	if err := writeDump(path, dump); err != nil {
		return nil, fmt.Errorf("writing span dump: %w", err)
	}
	fmt.Printf("span dump: %s\n", path)
	return res, nil
}

func passName(p pass) string {
	if p.tr != nil {
		return "traced"
	}
	return "untraced"
}

// outDir is where run artifacts go: $E2EBENCH_OUT, else .bench_build.
func outDir() string {
	if d := os.Getenv("E2EBENCH_OUT"); d != "" {
		return d
	}
	return ".bench_build"
}
