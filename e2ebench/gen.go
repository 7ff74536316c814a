package main

import (
	"fmt"
	"math/rand"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/geom"
)

// numSites is the site count of every workload: one per core of the
// 2-CPU host the benchmark was sized on.
const numSites = 2

// roundInput is one round's data: data set A split over the sites.
type roundInput struct {
	ds    data.Dataset
	part  *data.Partition
	sites []dbdc.Site
}

// genRound draws data set A with n points from seed and splits it over
// numSites sites, by angular sector (spatial) or uniformly at random.
func genRound(n int, spatial bool, seed int64) (*roundInput, error) {
	ds := data.DatasetA(n, seed)
	var part *data.Partition
	var err error
	if spatial {
		part, err = data.PartitionSpatial(ds.Points, numSites)
	} else {
		part, err = data.PartitionRandom(n, numSites, rand.New(rand.NewSource(^seed)))
	}
	if err != nil {
		return nil, err
	}
	pts := part.Extract(ds.Points)
	sites := make([]dbdc.Site, numSites)
	for i := range sites {
		sites[i] = dbdc.Site{ID: siteID(i), Points: pts[i]}
	}
	return &roundInput{ds: ds, part: part, sites: sites}, nil
}

func siteID(i int) string { return fmt.Sprintf("site-%d", i+1) }

// Stream geometry: a 100×100 domain, blobs with standard deviation 2, which
// at window 1000 and Eps 1.2 / MinPts 4 form dense clusters.
const (
	streamDomain = 100.0
	blobStddev   = 2.0
)

// driftStream is one site's seeded drifting stream: half its points come
// from a persistent blob, 45% from a blob that moves to a fresh random
// centre at the start of every window turn, and 5% are uniform noise.
// The move makes the clustering change by more than the upload threshold
// in every window turn.
type driftStream struct {
	rng    *rand.Rand
	window int
	home   geom.Point
	roam   geom.Point
	n      int
}

func newDriftStream(seed int64, window int) *driftStream {
	s := &driftStream{rng: rand.New(rand.NewSource(seed)), window: window}
	s.home = s.centre()
	return s
}

// centre draws a blob centre away from the domain border.
func (s *driftStream) centre() geom.Point {
	return geom.Point{10 + s.rng.Float64()*(streamDomain-20), 10 + s.rng.Float64()*(streamDomain-20)}
}

// minRoamGap keeps the moving blob's centre 6 standard deviations away
// from the persistent blob, so the two never merge: how much work a window
// holds then does not hinge on where the seed happens to put the blobs.
const minRoamGap = 6 * blobStddev

func (s *driftStream) next() geom.Point {
	if s.n%s.window == 0 {
		for s.roam = s.centre(); geom.SquaredEuclidean(s.roam, s.home) < minRoamGap*minRoamGap; s.roam = s.centre() {
		}
	}
	s.n++
	var c geom.Point
	switch u := s.rng.Float64(); {
	case u < 0.50:
		c = s.home
	case u < 0.95:
		c = s.roam
	default:
		return geom.Point{s.rng.Float64() * streamDomain, s.rng.Float64() * streamDomain}
	}
	return geom.Point{c[0] + s.rng.NormFloat64()*blobStddev, c[1] + s.rng.NormFloat64()*blobStddev}
}
