package dbscan_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
)

// prunedCase is one input of the pruned-expansion differential.
type prunedCase struct {
	name   string
	pts    []geom.Point
	params dbscan.Params
	// skipLinear leaves out the linear scan, whose O(n²) queries take
	// minutes on the dense 64k-point input; the other adapter-backed kinds
	// run the same filter path there.
	skipLinear bool
}

// checkPruned runs the pruned Run and the unpruned reference over the same
// store-backed and slice-backed index of every kind and requires identical
// labels, core flags, specific cores (selection order included), specific
// ε-ranges and region-query counts.
func checkPruned(t *testing.T, c prunedCase) {
	t.Helper()
	st, err := geom.FromPoints(c.pts)
	if err != nil {
		t.Fatal(err)
	}
	opts := dbscan.Options{CollectSpecificCores: true}
	for _, kind := range index.Kinds() {
		if c.skipLinear && kind == index.KindLinear {
			continue
		}
		for _, backing := range []string{"store", "slice"} {
			var idx index.Index
			if backing == "store" {
				idx, err = index.BuildStore(kind, st, geom.Euclidean{}, c.params.Eps)
			} else {
				idx, err = index.Build(kind, clonePoints(c.pts), geom.Euclidean{}, c.params.Eps)
			}
			if err != nil {
				t.Fatalf("%s/%s/%s: build: %v", c.name, backing, kind, err)
			}
			want, err := dbscan.RunUnpruned(idx, c.params, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dbscan.Run(idx, c.params, opts)
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("%s/%s/%s", c.name, backing, kind)
			if !reflect.DeepEqual(got.Labels, want.Labels) {
				t.Errorf("%s: labels differ from the unpruned run", where)
			}
			if !reflect.DeepEqual(got.Core, want.Core) {
				t.Errorf("%s: core flags differ from the unpruned run", where)
			}
			if !reflect.DeepEqual(got.Scor, want.Scor) {
				t.Errorf("%s: specific cores differ from the unpruned run", where)
			}
			if !reflect.DeepEqual(got.SpecificEps, want.SpecificEps) {
				t.Errorf("%s: specific ε differ from the unpruned run", where)
			}
			if got.RangeQueries != want.RangeQueries {
				t.Errorf("%s: %d range queries, unpruned run %d", where, got.RangeQueries, want.RangeQueries)
			}
		}
	}
}

// TestPrunedExpansionDifferential pins the settled-subtree pruning of Run
// to the unpruned expansion on the paper's data set A, on the dense larger
// half of a 100k spatial split, and on degenerate geometry.
func TestPrunedExpansionDifferential(t *testing.T) {
	a := data.DatasetA(data.DatasetASize, 1)
	cases := []prunedCase{
		{name: "A-8k7", pts: a.Points, params: a.Params},
		{name: "A-2k-minpts1", pts: a.Points[:2000], params: dbscan.Params{Eps: 1.2, MinPts: 1}},
	}
	// The dense input costs tens of seconds across the kinds, and several
	// minutes under the race detector, which has nothing to find in a
	// sequential run.
	if !testing.Short() && !raceEnabled {
		big := data.DatasetA(100_000, 1)
		part, err := data.PartitionSpatial(big.Points, 2)
		if err != nil {
			t.Fatal(err)
		}
		larger := part.Sites[0]
		if len(part.Sites[1]) > len(larger) {
			larger = part.Sites[1]
		}
		half := make([]geom.Point, len(larger))
		for i, id := range larger {
			half[i] = big.Points[id]
		}
		cases = append(cases, prunedCase{name: "A-100k-spatial-half", pts: half, params: big.Params, skipLinear: true})
	}
	dup := make([]geom.Point, 40)
	for i := range dup {
		dup[i] = geom.Point{3, -2}
	}
	line := make([]geom.Point, 300)
	for i := range line {
		x := float64(i%150) * 0.4
		line[i] = geom.Point{x, 2*x + 1}
	}
	small := a.Points[:300]
	box := geom.BoundingRect(small)
	cover := math.Sqrt(geom.SquaredEuclidean(box.Min, box.Max)) + 1
	cases = append(cases,
		prunedCase{name: "duplicates", pts: dup, params: dbscan.Params{Eps: 0.5, MinPts: 4}},
		prunedCase{name: "duplicates-minpts-over-n", pts: dup, params: dbscan.Params{Eps: 0.5, MinPts: 41}},
		prunedCase{name: "collinear", pts: line, params: dbscan.Params{Eps: 0.9, MinPts: 4}},
		prunedCase{name: "single", pts: []geom.Point{{1, 1}}, params: dbscan.Params{Eps: 1, MinPts: 1}},
		prunedCase{name: "single-minpts2", pts: []geom.Point{{1, 1}}, params: dbscan.Params{Eps: 1, MinPts: 2}},
		prunedCase{name: "minpts-over-n", pts: small, params: dbscan.Params{Eps: 1.2, MinPts: 301}},
		prunedCase{name: "eps-covers-bbox", pts: small, params: dbscan.Params{Eps: cover, MinPts: 4}},
	)
	for _, c := range cases {
		checkPruned(t, c)
	}
}

// FuzzPrunedExpansion drives the differential over small random point sets
// with random Eps and MinPts and injected duplicates.
func FuzzPrunedExpansion(f *testing.F) {
	f.Add(int64(1), uint8(40), 1.0, uint8(4), uint8(5))
	f.Add(int64(7), uint8(1), 0.3, uint8(1), uint8(0))
	f.Add(int64(3), uint8(120), 2.5, uint8(9), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, eps float64, minPts uint8, dups uint8) {
		if !(eps > 0) || eps > 50 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		pts := make([]geom.Point, 0, int(n)+int(dups)+1)
		for i := 0; i <= int(n); i++ {
			pts = append(pts, geom.Point{rng.Float64() * 10, rng.Float64() * 10})
		}
		for i := 0; i < int(dups); i++ {
			pts = append(pts, pts[rng.Intn(len(pts))].Clone())
		}
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		checkPruned(t, prunedCase{name: "fuzz", pts: pts, params: dbscan.Params{Eps: eps, MinPts: 1 + int(minPts%16)}})
	})
}
