package main

import (
	"reflect"
	"testing"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/stream"
	"github.com/dbdc-go/dbdc/internal/transport"
)

func TestGenRoundDeterministicPerSeed(t *testing.T) {
	for _, spatial := range []bool{false, true} {
		a, err := genRound(2000, spatial, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := genRound(2000, spatial, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := genRound(2000, spatial, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.sites, b.sites) || !reflect.DeepEqual(a.part, b.part) {
			t.Errorf("spatial=%v: same seed gave different rounds", spatial)
		}
		if reflect.DeepEqual(a.sites, c.sites) {
			t.Errorf("spatial=%v: seeds 7 and 8 gave the same round", spatial)
		}
		if err := a.part.Validate(2000); err != nil {
			t.Errorf("spatial=%v: %v", spatial, err)
		}
	}
}

func TestStreamsDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []geom.Point {
		g := newDriftStream(seed, streamWindow)
		out := make([]geom.Point, 3*streamWindow)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	if !reflect.DeepEqual(draw(3), draw(3)) {
		t.Error("same seed gave different streams")
	}
	if reflect.DeepEqual(draw(3), draw(4)) {
		t.Error("seeds 3 and 4 gave the same stream")
	}
	if !reflect.DeepEqual(queryStream(3), queryStream(3)) {
		t.Error("same seed gave different query pools")
	}
	if reflect.DeepEqual(queryStream(3), queryStream(4)) {
		t.Error("seeds 3 and 4 gave the same query pool")
	}
	if reflect.DeepEqual(draw(siteSeed(3, 0)), draw(siteSeed(3, 1))) {
		t.Error("the two sites of one seed stream the same points")
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 20000; n++ {
		r := tailRank(n)
		med := percentileRank(n, 50)
		switch {
		case r < med:
			t.Fatalf("n=%d: tail rank %d below the median rank %d", n, r, med)
		case r > med && n-r < minBeyond:
			t.Fatalf("n=%d: tail rank %d leaves %d samples beyond it", n, r, n-r)
		case n-r > minBeyond && r < percentileRank(n, tailCap):
			t.Fatalf("n=%d: tail rank %d is not the highest qualifying rank", n, r)
		}
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1)
	}
	if s := summarize(samples); s.P50 != 50 || s.Tail != 75 || s.TailPct != 75 || s.N != 100 {
		t.Errorf("summary of 1..100 = %+v, want p50 50 and tail 75 at p75", s)
	}
	if s := summarize(samples[:32]); s.Tail != 90 || s.TailPct != 68.75 {
		t.Errorf("32 samples (69..100): tail %+v, want 90 at p68.75, the highest rank with 10 beyond it", s)
	}
	if s := summarize(samples[:12]); s.Tail != s.P50 || s.TailPct != 50 {
		t.Errorf("12 samples: tail %+v, want the median", s)
	}
	if r := tailRank(100000); r != 75000 {
		t.Errorf("tail rank of 100000 samples = %d, want the 75th percentile 75000", r)
	}
}

// countingUploader acknowledges every upload as an applied delta and
// records which window turn of the stream it happened in.
type countingUploader struct {
	ingested *int
	turns    map[int]int
}

func (u *countingUploader) Upload(*model.LocalModel, *model.LocalDelta, *transport.StreamStats) (*transport.UploadResult, error) {
	u.turns[(*u.ingested-1)/streamWindow]++
	return &transport.UploadResult{Mode: transport.ModeDelta}, nil
}

func TestDriftingStreamUploadsEveryTurn(t *testing.T) {
	const turns = 4
	ingested := 0
	up := &countingUploader{ingested: &ingested, turns: map[int]int{}}
	site, err := stream.NewSite(stream.Config{
		SiteID: "s", Cluster: benchConfig,
		Window: streamWindow, Threshold: streamThreshold, CheckEvery: streamCheck,
	}, up)
	if err != nil {
		t.Fatal(err)
	}
	g := newDriftStream(siteSeed(1, 0), streamWindow)
	for ingested < turns*streamWindow {
		ingested++
		if err := site.Ingest(g.next()); err != nil {
			t.Fatal(err)
		}
	}
	for turn := 0; turn < turns; turn++ {
		if up.turns[turn] == 0 {
			t.Errorf("no upload during window turn %d (uploads per turn: %v)", turn, up.turns)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	parent := span{ID: 0, Parent: -1, StartUS: 0, EndUS: 100}
	kids := []span{
		{Parent: 0, StartUS: 60, EndUS: 70},
		{Parent: 0, StartUS: 10, EndUS: 30},
		{Parent: 0, StartUS: 20, EndUS: 50},  // overlaps the previous child
		{Parent: 0, StartUS: 95, EndUS: 120}, // runs past the parent's end
	}
	if got := selfTime(parent, kids); got != 45 {
		t.Errorf("self time = %v, want 45", got)
	}
}

func TestSameRepPartitionIgnoresIDs(t *testing.T) {
	rep := func(site string, x float64, c int) model.GlobalRepresentative {
		return model.GlobalRepresentative{
			Representative: model.Representative{Point: geom.Point{x, 0}, Eps: 1},
			SiteID:         site, GlobalCluster: cluster.ID(c),
		}
	}
	a := &model.GlobalModel{Reps: []model.GlobalRepresentative{rep("a", 1, 0), rep("b", 2, 0), rep("a", 5, 1)}}
	renamed := &model.GlobalModel{Reps: []model.GlobalRepresentative{rep("a", 5, 7), rep("a", 1, 3), rep("b", 2, 3)}}
	split := &model.GlobalModel{Reps: []model.GlobalRepresentative{rep("a", 1, 0), rep("b", 2, 1), rep("a", 5, 1)}}
	moved := &model.GlobalModel{Reps: []model.GlobalRepresentative{rep("a", 1, 0), rep("b", 3, 0), rep("a", 5, 1)}}
	if !sameRepPartition(a, renamed) {
		t.Error("renamed clusters reported as a different partition")
	}
	if sameRepPartition(a, split) {
		t.Error("different grouping reported as the same partition")
	}
	if sameRepPartition(a, moved) {
		t.Error("different representatives reported as the same partition")
	}
}

// TestWorkloadsPassTheirChecks runs short untraced and traced passes of the
// workloads whose data keeps a test fast: their output checks must hold and
// every end-to-end metric must be measured.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("drives loopback servers for several seconds")
	}
	// Long enough for uploads even under the race detector.
	durs := map[string]time.Duration{"round-random-8k7": 300 * time.Millisecond, "stream-classify": 3 * time.Second}
	for name, dur := range durs {
		for _, tr := range []*tracer{nil, newTracer()} {
			out, err := workloads[name](pass{seed: 1, dur: dur, tr: tr})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(out.failures) > 0 || out.failed > 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed, checks failed: %v",
					name, tr != nil, out.failed, out.attempted, out.failures)
			}
			for _, m := range endToEnd {
				if _, ok := out.e2e[m.name]; !ok && m.name != "success_frac" {
					t.Errorf("%s: %s not measured", name, m.name)
				}
			}
		}
	}
}
