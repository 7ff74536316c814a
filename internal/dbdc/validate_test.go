package dbdc

import (
	"math"
	"math/rand"
	"testing"

	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/model"
)

// TestGlobalStepRejectsNonFiniteEps: a single representative with ε = +Inf
// used to pass LocalModel.Validate, made Eps_global infinite and merged
// data set A's global clusters into one. GlobalStep must reject such a
// model, and NaN must fare no better.
func TestGlobalStepRejectsNonFiniteEps(t *testing.T) {
	ds := data.DatasetA(data.DatasetASize, 1)
	part, err := data.PartitionRandom(len(ds.Points), 2, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Local: ds.Params}
	var models []*model.LocalModel
	for s, ids := range part.Sites {
		pts := make([]geom.Point, len(ids))
		for i, id := range ids {
			pts[i] = ds.Points[id]
		}
		out, err := LocalStep(string(rune('a'+s)), pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, out.Model)
	}
	clean, err := GlobalStep(models, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.NumClusters < 2 {
		t.Fatalf("clean round found %d global clusters; the check needs several", clean.NumClusters)
	}
	for _, bad := range []float64{math.Inf(1), math.NaN()} {
		corrupt := *models[0]
		corrupt.Reps = append([]model.Representative(nil), models[0].Reps...)
		corrupt.Reps[0].Eps = bad
		if g, err := GlobalStep([]*model.LocalModel{&corrupt, models[1]}, cfg); err == nil {
			t.Errorf("representative ε %v accepted: %d global clusters, clean round %d",
				bad, g.NumClusters, clean.NumClusters)
		}
		global := *clean
		global.Reps = append([]model.GlobalRepresentative(nil), clean.Reps...)
		global.Reps[0].Eps = bad
		if global.Validate() == nil {
			t.Errorf("global representative ε %v validated", bad)
		}
		global = *clean
		global.EpsGlobal = bad
		if global.Validate() == nil {
			t.Errorf("EpsGlobal %v validated", bad)
		}
		local := *models[1]
		local.EpsLocal = bad
		if local.Validate() == nil {
			t.Errorf("EpsLocal %v validated", bad)
		}
		badCfg := cfg
		badCfg.EpsGlobal = bad
		if badCfg.Validate() == nil {
			t.Errorf("Config.EpsGlobal %v validated", bad)
		}
	}
}
