package rstar

import "github.com/dbdc-go/dbdc/internal/geom"

// Expansion is index.Expansion, restated as the identical interface literal
// because package index imports this one: a store-backed Tree satisfies
// index.Expander through NewExpansion.
type Expansion = interface {
	Settle(i int)
	Expand(i int, eps float64, minPts int, out []int) (core bool, open []int)
}

// expansion is the Tree's tracker for one DBSCAN run: an open-point counter
// per node, keyed by the bulk-load node id, so Expand skips every subtree
// whose points the run has all settled once the query's core test is
// decided. The tree itself is only read.
type expansion struct {
	t       *Tree
	open    []int32 // open points under each node
	parent  []int32 // parent node id; -1 at the root
	leafOf  []int32 // leaf node id of each point
	settled []bool
	// cand collects the open leaf entries of the pruned phase, verified in
	// one batch at the end of Expand.
	cand []int
	// count is the number of neighbours verified so far in the current
	// query; while it is below minPts every candidate is verified.
	count, minPts int
}

// NewExpansion implements index.Expander for bulk-loaded store-backed
// trees, the shape DBSCAN runs over; it returns nil for any other tree.
func (t *Tree) NewExpansion() Expansion {
	if t.store == nil || t.numbered == 0 || t.root == nil {
		return nil
	}
	x := &expansion{
		t:       t,
		open:    make([]int32, t.numbered),
		parent:  make([]int32, t.numbered),
		leafOf:  make([]int32, len(t.pts)),
		settled: make([]bool, len(t.pts)),
	}
	x.index(t.root, -1)
	return x
}

// index fills the counters, parents and leaf map of n's subtree.
func (x *expansion) index(n *node, parent int32) {
	x.parent[n.id] = parent
	if n.leaf() {
		for _, e := range n.entries {
			x.leafOf[e.idx] = n.id
		}
		x.open[n.id] = int32(len(n.entries))
		return
	}
	var sum int32
	for _, e := range n.entries {
		x.index(e.child, n.id)
		sum += x.open[e.child.id]
	}
	x.open[n.id] = sum
}

func (x *expansion) Settle(i int) {
	if x.settled[i] {
		return
	}
	x.settled[i] = true
	for id := x.leafOf[i]; id >= 0; id = x.parent[id] {
		x.open[id]--
	}
}

// Expand walks the MBR-pruned depth-first descent of rangeSearchStore and
// verifies with the same fused kernel, so while the core test is open it
// sees exactly the full query's neighbours in the full query's order. From
// the first leaf that decides it on, subtrees without open points and
// settled leaf entries are skipped: the result is the open subsequence of
// the full query.
func (x *expansion) Expand(i int, eps float64, minPts int, out []int) (bool, []int) {
	q, eps2 := x.t.pts[i], eps*eps
	x.count, x.minPts = 0, minPts
	x.cand = x.cand[:0]
	out = x.walk(x.t.root, q, eps2, out[:0])
	out = x.t.store.VerifyRangeSq(q, x.cand, eps2, out)
	return x.count >= minPts, out
}

func (x *expansion) walk(n *node, q geom.Point, eps2 float64, out []int) []int {
	if !n.leaf() {
		for k := range n.entries {
			e := &n.entries[k]
			if x.count >= x.minPts && x.open[e.child.id] == 0 {
				continue
			}
			if e.rect.MinDistSq(q) <= eps2 {
				out = x.walk(e.child, q, eps2, out)
			}
		}
		return out
	}
	if x.count >= x.minPts {
		for _, e := range n.entries {
			if !x.settled[e.idx] {
				x.cand = append(x.cand, int(e.idx))
			}
		}
		return out
	}
	// Counting phase: verify the whole leaf now (x.cand is still empty and
	// serves as scratch), then keep only its open neighbours.
	cand := x.cand[:0]
	for _, e := range n.entries {
		cand = append(cand, int(e.idx))
	}
	start := len(out)
	out = x.t.store.VerifyRangeSq(q, cand, eps2, out)
	x.cand = cand[:0]
	x.count += len(out) - start
	w := start
	for _, id := range out[start:] {
		if !x.settled[id] {
			out[w] = id
			w++
		}
	}
	return out[:w]
}
