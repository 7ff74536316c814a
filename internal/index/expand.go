package index

import "github.com/dbdc-go/dbdc/internal/geom"

// Expansion is the per-run state of one DBSCAN expansion over an index. It
// tracks which points the run has settled — assigned a cluster id — so the
// region queries of the expansion can skip them: a label only ever moves
// from open (unclassified or noise) to settled, never back, and the
// expansion has nothing left to do for a settled neighbour.
//
// Expansion is an alias of an interface literal so that index packages
// this one imports (rstar) can return it without an import cycle; their
// own alias of the same literal is the identical type.
type Expansion = interface {
	// Settle marks point i as settled. Every point starts open.
	Settle(i int)
	// Expand answers the region query of point i. core reports
	// |N_eps(i)| >= minPts. When core holds, open is the subsequence of
	// N_eps(i) that was open at call time, in RangeAppendID order, written
	// into out[:0]; otherwise open is unspecified.
	Expand(i int, eps float64, minPts int, out []int) (core bool, open []int)
}

// Expander is implemented by indexes with a native pruned expansion.
type Expander interface {
	// NewExpansion returns a tracker with every point open, or nil when the
	// index cannot track its current state; the index itself stays
	// immutable, so concurrent runs each own their tracker.
	NewExpansion() Expansion
}

// NewExpansion returns the expansion tracker for one run over idx: the
// index's native tracker when it has one, else an adapter that issues the
// full RangeIntoID query and filters out settled points.
func NewExpansion(idx Index) Expansion {
	if ex, ok := idx.(Expander); ok {
		if x := ex.NewExpansion(); x != nil {
			return x
		}
	}
	return &filterExpansion{idx: idx, settled: make([]bool, idx.Len())}
}

// filterExpansion is the generic Expansion: one full range query per
// Expand, filtered in place.
type filterExpansion struct {
	idx     Index
	settled []bool
}

func (f *filterExpansion) Settle(i int) { f.settled[i] = true }

func (f *filterExpansion) Expand(i int, eps float64, minPts int, out []int) (bool, []int) {
	out = RangeIntoID(f.idx, i, eps, out)
	if len(out) < minPts {
		return false, out
	}
	return true, dropSettled(out, 0, f.settled)
}

// dropSettled removes the settled ids of out[start:] in place, keeping the
// order of the rest.
func dropSettled(out []int, start int, settled []bool) []int {
	w := start
	for _, id := range out[start:] {
		if !settled[id] {
			out[w] = id
			w++
		}
	}
	return out[:w]
}

// kdExpansion is the KDTree's tracker: an open-point counter per node slot,
// so Expand skips every subtree whose points are all settled once the
// query's core test is decided.
type kdExpansion struct {
	t       *KDTree
	open    []int32 // open points under each node slot
	parent  []int32 // parent slot; -1 at the root
	leafOf  []int32 // leaf slot of each point
	settled []bool
	// count is the number of neighbours verified so far in the current
	// query; while it is below minPts every candidate is verified.
	count, minPts int
}

// NewExpansion implements Expander for store-backed Euclidean trees, whose
// region queries run on the batched store kernel; other builds use the
// generic adapter.
func (t *KDTree) NewExpansion() Expansion {
	if !t.euclid || t.store == nil || t.root < 0 {
		return nil
	}
	x := &kdExpansion{
		t:       t,
		open:    make([]int32, len(t.nodes)),
		parent:  make([]int32, len(t.nodes)),
		leafOf:  make([]int32, len(t.pts)),
		settled: make([]bool, len(t.pts)),
	}
	// build appends parents before children, so a descending sweep sees
	// every child before its parent.
	x.parent[t.root] = -1
	for slot := len(t.nodes) - 1; slot >= 0; slot-- {
		n := &t.nodes[slot]
		if n.axis < 0 {
			x.open[slot] = n.right - n.left
			for _, id := range t.order[n.left:n.right] {
				x.leafOf[id] = int32(slot)
			}
			continue
		}
		x.open[slot] = x.open[n.left] + x.open[n.right]
		x.parent[n.left], x.parent[n.right] = int32(slot), int32(slot)
	}
	return x
}

func (x *kdExpansion) Settle(i int) {
	if x.settled[i] {
		return
	}
	x.settled[i] = true
	for s := x.leafOf[i]; s >= 0; s = x.parent[s] {
		x.open[s]--
	}
}

func (x *kdExpansion) Expand(i int, eps float64, minPts int, out []int) (bool, []int) {
	x.count, x.minPts = 0, minPts
	out = x.walk(x.t.root, x.t.pts[i], eps, eps*eps, out[:0])
	return x.count >= minPts, out
}

// walk is the depth-first, left-before-right descent of rangeStore, gated
// on every node's tight bounding box (a sound prune by the argument of
// rangeStore: the kernel-order squared-gap sum lower-bounds every boxed
// row's computed distance), so it reaches every leaf holding a neighbour in
// the full query's order. Once the core test is decided it also skips
// subtrees without open points. Settled neighbours are dropped from every
// leaf's result, so the output is the open subsequence of the full query.
func (x *kdExpansion) walk(slot int32, q geom.Point, eps, eps2 float64, out []int) []int {
	if x.count >= x.minPts && x.open[slot] == 0 {
		return out
	}
	t := x.t
	b := t.bounds[int(slot)*2*t.dim:]
	var sum float64
	for d := 0; d < t.dim; d++ {
		g := boxGap(q[d], b[2*d], b[2*d+1])
		if g > eps {
			return out
		}
		sum += g * g
	}
	if sum > eps2 {
		return out
	}
	n := &t.nodes[slot]
	if n.axis >= 0 {
		out = x.walk(n.left, q, eps, eps2, out)
		return x.walk(n.right, q, eps, eps2, out)
	}
	start := len(out)
	out = t.store.VerifyRangeSq(q, t.order[n.left:n.right], eps2, out)
	x.count += len(out) - start
	return dropSettled(out, start, x.settled)
}
