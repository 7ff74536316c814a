package index

import (
	"errors"

	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index/mtree"
	"github.com/dbdc-go/dbdc/internal/index/rstar"
)

// Both trees track DBSCAN expansions natively; the assertion keeps the
// rstar restatement of Expansion in step with this package's.
var (
	_ Expander = (*KDTree)(nil)
	_ Expander = (*rstar.Tree)(nil)
)

// The tree indexes live in subpackages; register their builders here so
// Build can construct every kind by name.
func init() {
	RegisterBuilder(KindRStar, func(pts []geom.Point, m geom.Metric, _ float64) (Index, error) {
		if m != nil {
			if _, ok := m.(geom.Euclidean); !ok {
				return nil, errors.New("index: the R*-tree supports only the Euclidean metric; use the M-tree for general metrics")
			}
		}
		return rstar.NewBulk(pts)
	})
	RegisterBuilder(KindMTree, func(pts []geom.Point, m geom.Metric, _ float64) (Index, error) {
		return mtree.New(pts, m)
	})
	RegisterStoreBuilder(KindRStar, func(st *geom.Store, m geom.Metric, _ float64) (Index, error) {
		if m != nil {
			if _, ok := m.(geom.Euclidean); !ok {
				return nil, errors.New("index: the R*-tree supports only the Euclidean metric; use the M-tree for general metrics")
			}
		}
		return rstar.NewBulkStore(st, rstar.DefaultMaxEntries)
	})
	RegisterStoreBuilder(KindMTree, func(st *geom.Store, m geom.Metric, _ float64) (Index, error) {
		return mtree.NewFromStore(st, m)
	})
}
