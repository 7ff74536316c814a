package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index/rstar"
)

// TestExpansionMatchesFilteredRange drives every tracker through a random
// settle order and checks each Expand against the full RangeAppendID query:
// the core verdict is |N_eps| >= minPts, and a core query returns exactly
// the open subsequence of the full result, in its order.
func TestExpansionMatchesFilteredRange(t *testing.T) {
	st := testStore(1500, 21)
	for _, kind := range Kinds() {
		for _, backing := range []string{"store", "slice"} {
			var idx Index
			var err error
			if backing == "store" {
				idx, err = BuildStore(kind, st, geom.Euclidean{}, 2)
			} else {
				idx, err = Build(kind, st.Views(), geom.Euclidean{}, 2)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, minPts := range []int{1, 4, 12, 40} {
				checkExpansion(t, fmt.Sprintf("%s/%s/minpts=%d", backing, kind, minPts), idx, 2, minPts)
			}
		}
	}
}

func checkExpansion(t *testing.T, where string, idx Index, eps float64, minPts int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(minPts)))
	x := NewExpansion(idx)
	settled := make([]bool, idx.Len())
	var out []int
	for step, i := range rng.Perm(idx.Len()) {
		full := RangeIntoID(idx, i, eps, nil)
		core, open := x.Expand(i, eps, minPts, out)
		out = open
		if core != (len(full) >= minPts) {
			t.Fatalf("%s: query %d: core %v with %d neighbours", where, i, core, len(full))
		}
		if core {
			want := []int{}
			for _, id := range full {
				if !settled[id] {
					want = append(want, id)
				}
			}
			if !reflect.DeepEqual(append([]int{}, open...), want) {
				t.Fatalf("%s: query %d after %d settles: open %v, want %v", where, i, step, open, want)
			}
		}
		// Settle a random neighbour now and then, and the query point
		// itself, so counters empty whole subtrees as the run goes on.
		if len(full) > 0 && rng.Intn(2) == 0 {
			j := full[rng.Intn(len(full))]
			x.Settle(j)
			settled[j] = true
		}
		x.Settle(i)
		settled[i] = true
	}
}

// TestNewExpansionNative: store-backed trees bring their own tracker; other
// builds, and an R*-tree restructured by Delete, get the generic adapter.
func TestNewExpansionNative(t *testing.T) {
	st := testStore(300, 5)
	for _, kind := range []Kind{KindKDTree, KindRStar} {
		idx, err := BuildStore(kind, st, geom.Euclidean{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, generic := NewExpansion(idx).(*filterExpansion); generic {
			t.Errorf("store-backed %s: got the generic adapter", kind)
		}
		sliceIdx, err := Build(kind, st.Views(), geom.Euclidean{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, generic := NewExpansion(sliceIdx).(*filterExpansion); !generic {
			t.Errorf("slice-backed %s: got a native tracker", kind)
		}
	}
	tree, err := rstar.NewBulkStore(st, rstar.DefaultMaxEntries)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Delete(7); err != nil {
		t.Fatal(err)
	}
	if _, generic := NewExpansion(tree).(*filterExpansion); !generic {
		t.Error("R*-tree after Delete: got a native tracker over stale node ids")
	}
}
