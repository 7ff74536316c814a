package dbscan

import (
	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/index"
)

// RunUnpruned is the sequential DBSCAN expansion as it stood before the
// settled-subtree pruning: every region query is the full RangeIntoID
// neighbourhood and the expansion skips settled neighbours itself. The
// pruned-expansion differentials compare Run against it field by field.
func RunUnpruned(idx index.Index, params Params, opts Options) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := idx.Len()
	res := &Result{
		Params: params,
		Labels: cluster.NewLabeling(n),
		Core:   make([]bool, n),
	}
	if opts.CollectSpecificCores {
		res.Scor = make(map[cluster.ID][]int)
		res.SpecificEps = make(map[int]float64)
	}
	metric := idx.Metric()
	st := index.StoreOf(idx)
	var clusterID cluster.ID
	var seeds, nbuf []int
	var bs batchScratch
	for i := 0; i < n; i++ {
		if res.Labels[i] != cluster.Unclassified {
			continue
		}
		neighbors := index.RangeIntoID(idx, i, params.Eps, nbuf)
		nbuf = neighbors
		res.RangeQueries++
		if len(neighbors) < params.MinPts {
			res.Labels[i] = cluster.Noise
			continue
		}
		res.Core[i] = true
		res.Labels[i] = clusterID
		if opts.CollectSpecificCores {
			res.Scor[clusterID] = append(res.Scor[clusterID], i)
		}
		seeds = seeds[:0]
		for _, q := range neighbors {
			if q == i {
				continue
			}
			switch res.Labels[q] {
			case cluster.Unclassified:
				res.Labels[q] = clusterID
				seeds = append(seeds, q)
			case cluster.Noise:
				res.Labels[q] = clusterID
			}
		}
		for len(seeds) > 0 {
			q := seeds[len(seeds)-1]
			seeds = seeds[:len(seeds)-1]
			qNeighbors := index.RangeIntoID(idx, q, params.Eps, nbuf)
			nbuf = qNeighbors
			res.RangeQueries++
			if len(qNeighbors) < params.MinPts {
				continue
			}
			res.Core[q] = true
			if opts.CollectSpecificCores {
				res.maybeAddSpecificCore(idx, metric, st, clusterID, q, &bs)
			}
			for _, r := range qNeighbors {
				switch res.Labels[r] {
				case cluster.Unclassified:
					res.Labels[r] = clusterID
					seeds = append(seeds, r)
				case cluster.Noise:
					res.Labels[r] = clusterID
				}
			}
		}
		clusterID++
	}
	if opts.CollectSpecificCores {
		res.computeSpecificEps(idx, metric, st, &bs)
	}
	return res, nil
}
