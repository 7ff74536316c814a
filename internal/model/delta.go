package model

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// A LocalDelta is the incremental form of a LocalModel: instead of
// re-shipping every representative each time the site's clustering changes
// "considerably", a streaming site names the representatives that vanished
// since the last transmitted state and ships only the new ones. Each
// representative carries a site-assigned uint32 id that is stable for its
// lifetime, so removals are 4 bytes instead of a full point.
//
// Deltas form a chain: a delta with BaseSeq b transforms the state produced
// by the delta with Seq b into the state Seq. BaseSeq 0 is the snapshot
// case — the receiver discards everything it holds for the site and starts
// over from the Added list alone — which doubles as the negotiated
// "full model" upload and as the recovery move after a sequence mismatch.
type LocalDelta struct {
	// SiteID, Kind, EpsLocal and MinPts mirror the LocalModel header; the
	// receiver materializes them into the folded model.
	SiteID   string  `json:"siteID"`
	Kind     Kind    `json:"kind"`
	EpsLocal float64 `json:"epsLocal"`
	MinPts   int     `json:"minPts"`
	// BaseSeq is the sequence number of the state this delta applies to;
	// 0 means snapshot (no base, Removed must be empty).
	BaseSeq uint64 `json:"baseSeq"`
	// Seq is the sequence number of the state after applying the delta.
	// Always > BaseSeq and ≥ 1.
	Seq uint64 `json:"seq"`
	// NumObjects and NumClusters describe the site's current window, like
	// the LocalModel fields of the same name.
	NumObjects  int `json:"numObjects"`
	NumClusters int `json:"numClusters"`
	// Removed lists ids of representatives absent from the new state.
	Removed []uint32 `json:"removed"`
	// Added lists representatives new in this state, with their ids.
	Added []DeltaRep `json:"added"`
}

// DeltaRep is one added representative together with its site-assigned id.
type DeltaRep struct {
	ID  uint32         `json:"id"`
	Rep Representative `json:"rep"`
}

// Snapshot reports whether the delta replaces all previous state for the
// site rather than amending it.
func (d *LocalDelta) Snapshot() bool { return d.BaseSeq == 0 }

// Validate checks structural soundness of a received delta; the server
// applies it before folding.
func (d *LocalDelta) Validate() error {
	if d.SiteID == "" {
		return fmt.Errorf("model: delta without site id")
	}
	if d.Kind != RepScor && d.Kind != RepKMeans {
		return fmt.Errorf("model: unknown model kind %q", d.Kind)
	}
	if !positiveFinite(d.EpsLocal) {
		return fmt.Errorf("model: EpsLocal %v is not positive and finite", d.EpsLocal)
	}
	if d.Seq == 0 {
		return fmt.Errorf("model: delta with sequence number 0")
	}
	if d.BaseSeq >= d.Seq {
		return fmt.Errorf("model: delta base %d not before sequence %d", d.BaseSeq, d.Seq)
	}
	if d.BaseSeq == 0 && len(d.Removed) > 0 {
		return fmt.Errorf("model: snapshot delta removes %d representatives", len(d.Removed))
	}
	seenRemoved := make(map[uint32]bool, len(d.Removed))
	for _, id := range d.Removed {
		if seenRemoved[id] {
			return fmt.Errorf("model: representative %d removed twice", id)
		}
		seenRemoved[id] = true
	}
	var dim int
	seenAdded := make(map[uint32]bool, len(d.Added))
	for i, a := range d.Added {
		if seenAdded[a.ID] {
			return fmt.Errorf("model: representative id %d added twice", a.ID)
		}
		seenAdded[a.ID] = true
		r := a.Rep
		if len(r.Point) == 0 {
			return fmt.Errorf("model: added representative %d has no coordinates", i)
		}
		if !r.Point.IsFinite() {
			return fmt.Errorf("model: added representative %d has non-finite coordinates", i)
		}
		if dim == 0 {
			dim = r.Point.Dim()
		} else if r.Point.Dim() != dim {
			return fmt.Errorf("model: added representative %d has dimension %d, want %d",
				i, r.Point.Dim(), dim)
		}
		if !positiveFinite(r.Eps) {
			return fmt.Errorf("model: added representative %d has eps %v, not positive and finite", i, r.Eps)
		}
		if r.LocalCluster < 0 {
			return fmt.Errorf("model: added representative %d has invalid local cluster %d",
				i, r.LocalCluster)
		}
	}
	return nil
}

// tagLocalDelta extends the wire tag set of encode.go.
const tagLocalDelta byte = 0x44 // 'D'

func (w *wireWriter) u64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

func (r *wireReader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v
}

// wireSize returns the exact encoded size of the delta in bytes.
func (d *LocalDelta) wireSize() int {
	size := 2 + 4 + len(d.SiteID) + 4 + len(d.Kind) + 8 + 4 + 8 + 8 + 4 + 4
	size += 4 + 4*len(d.Removed)
	size += 4
	for _, a := range d.Added {
		size += 4 + wireRepSize(a.Rep)
	}
	return size
}

// MarshalBinary encodes the delta in the compact wire format, one
// allocation total like the model encoders.
func (d *LocalDelta) MarshalBinary() ([]byte, error) {
	w := newWireWriter(d.wireSize())
	w.u8(tagLocalDelta)
	w.u8(wireVersion)
	w.str(d.SiteID)
	w.str(string(d.Kind))
	w.f64(d.EpsLocal)
	w.i32(int32(d.MinPts))
	w.u64(d.BaseSeq)
	w.u64(d.Seq)
	w.i32(int32(d.NumObjects))
	w.i32(int32(d.NumClusters))
	w.u32(uint32(len(d.Removed)))
	for _, id := range d.Removed {
		w.u32(id)
	}
	w.u32(uint32(len(d.Added)))
	for _, a := range d.Added {
		w.u32(a.ID)
		writeRep(&w, a.Rep)
	}
	return w.buf, nil
}

// UnmarshalBinary decodes a delta, rejecting trailing bytes.
func (d *LocalDelta) UnmarshalBinary(data []byte) error {
	n, err := d.UnmarshalBinaryPrefix(data)
	if err != nil {
		return err
	}
	if n != len(data) {
		return fmt.Errorf("model: %d trailing bytes after delta", len(data)-n)
	}
	return nil
}

// UnmarshalBinaryPrefix decodes a delta from the beginning of data and
// returns the number of bytes consumed; like the local model, the encoding
// is self-delimiting so the transport can append trailer sections.
func (d *LocalDelta) UnmarshalBinaryPrefix(data []byte) (int, error) {
	r := &wireReader{data: data}
	if tag := r.u8(); r.err == nil && tag != tagLocalDelta {
		return 0, fmt.Errorf("model: expected delta frame, got tag 0x%02x", tag)
	}
	if v := r.u8(); r.err == nil && v != wireVersion {
		return 0, fmt.Errorf("model: unsupported wire version %d", v)
	}
	d.SiteID = r.str(maxWireSiteID)
	d.Kind = Kind(r.str(maxWireSiteID))
	d.EpsLocal = r.f64()
	d.MinPts = int(r.i32())
	d.BaseSeq = r.u64()
	d.Seq = r.u64()
	d.NumObjects = int(r.i32())
	d.NumClusters = int(r.i32())
	nr := int(r.u32())
	if r.err == nil && nr > maxWireReps {
		r.fail("removal count %d exceeds limit", nr)
	}
	if r.err == nil && nr*4 > len(data)-r.pos {
		r.fail("removal count %d exceeds the %d remaining bytes", nr, len(data)-r.pos)
	}
	if r.err != nil {
		return 0, r.err
	}
	d.Removed = make([]uint32, 0, nr)
	for i := 0; i < nr && r.err == nil; i++ {
		d.Removed = append(d.Removed, r.u32())
	}
	na := int(r.u32())
	if r.err == nil && na > maxWireReps {
		r.fail("addition count %d exceeds limit", na)
	}
	if r.err == nil && na*(4+minWireRep) > len(data)-r.pos {
		r.fail("addition count %d exceeds the %d remaining bytes", na, len(data)-r.pos)
	}
	if r.err != nil {
		return 0, r.err
	}
	d.Added = make([]DeltaRep, 0, na)
	var flat []float64
	for i := 0; i < na && r.err == nil; i++ {
		id := r.u32()
		d.Added = append(d.Added, DeltaRep{ID: id, Rep: readRep(r, &flat)})
	}
	if r.err != nil {
		return 0, r.err
	}
	return r.pos, nil
}

// EncodedSize returns the wire size of the delta in bytes — the streaming
// uplink cost of one change round.
func (d *LocalDelta) EncodedSize() int {
	b, _ := d.MarshalBinary()
	return len(b)
}

// repIdentity returns the content identity of a representative used for
// delta diffing: coordinates, specific ε-range and local cluster id.
// Identical representatives are disambiguated by an occurrence index so a
// model with duplicates round-trips with the exact multiset.
func repIdentity(r Representative, occurrence int) string {
	b := make([]byte, 0, 4+8*len(r.Point)+8+4)
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Point.Dim()))
	for _, c := range r.Point {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Eps))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.LocalCluster))
	return string(b) + "#" + strconv.Itoa(occurrence)
}

// DeltaTracker derives LocalDelta frames on the sending site by diffing
// each outgoing model against the last state the receiver acknowledged.
// Derivation and commit are split — Delta is pure, Commit applies a
// PendingDelta — so a failed upload leaves the tracker on the acknowledged
// state and the next attempt re-derives against it.
//
// Diffing is by representative content, so cluster ids must be stable
// across successive models (see ClusterMatcher): a batch re-clustering that
// renumbered every cluster would otherwise mark every representative
// changed and degenerate each delta into a snapshot.
type DeltaTracker struct {
	seq  uint64
	ids  map[string]uint32 // committed rep identity -> wire id
	next uint32
}

// NewDeltaTracker returns a tracker whose first delta is a snapshot.
func NewDeltaTracker() *DeltaTracker { return &DeltaTracker{} }

// Seq returns the last committed sequence number (0 before any commit).
func (t *DeltaTracker) Seq() uint64 { return t.seq }

// Reset discards the committed state, forcing the next delta to be a
// snapshot. Call it when the receiver reports a sequence mismatch.
func (t *DeltaTracker) Reset() {
	t.seq = 0
	t.ids = nil
	t.next = 0
}

// PendingDelta is a derived delta plus the tracker state it leads to;
// Commit installs that state once the receiver acknowledged the delta.
type PendingDelta struct {
	Delta *LocalDelta
	ids   map[string]uint32
	next  uint32
}

// Delta diffs m against the committed state. The returned pending delta is
// not applied until Commit; calling Delta again before Commit re-derives
// from the same base.
func (t *DeltaTracker) Delta(m *LocalModel) *PendingDelta {
	d := &LocalDelta{
		SiteID:      m.SiteID,
		Kind:        m.Kind,
		EpsLocal:    m.EpsLocal,
		MinPts:      m.MinPts,
		BaseSeq:     t.seq,
		Seq:         t.seq + 1,
		NumObjects:  m.NumObjects,
		NumClusters: m.NumClusters,
	}
	occ := make(map[string]int, len(m.Reps))
	ids := make(map[string]uint32, len(m.Reps))
	next := t.next
	for _, r := range m.Reps {
		base := repIdentity(r, 0)
		key := base
		if n := occ[base]; n > 0 {
			key = repIdentity(r, n)
		}
		occ[base]++
		if id, ok := t.ids[key]; ok {
			ids[key] = id
			continue
		}
		ids[key] = next
		d.Added = append(d.Added, DeltaRep{ID: next, Rep: r})
		next++
	}
	for key, id := range t.ids {
		if _, kept := ids[key]; !kept {
			d.Removed = append(d.Removed, id)
		}
	}
	sort.Slice(d.Removed, func(i, j int) bool { return d.Removed[i] < d.Removed[j] })
	return &PendingDelta{Delta: d, ids: ids, next: next}
}

// Commit installs the state of an acknowledged pending delta.
func (t *DeltaTracker) Commit(p *PendingDelta) {
	t.seq = p.Delta.Seq
	t.ids = p.ids
	t.next = p.next
}

// ErrDeltaBase is returned by DeltaFolder.Apply when a delta's BaseSeq does
// not match the folded state — frames were lost or reordered. The sender
// recovers by resetting its tracker and sending a snapshot.
var ErrDeltaBase = errors.New("model: delta base does not match folded state")

// DeltaFolder reassembles a site's LocalModel from its delta stream on the
// receiving side.
type DeltaFolder struct {
	seq         uint64
	reps        map[uint32]Representative
	siteID      string
	kind        Kind
	epsLocal    float64
	minPts      int
	numObjects  int
	numClusters int
}

// NewDeltaFolder returns an empty folder; it only accepts a snapshot until
// one has been applied.
func NewDeltaFolder() *DeltaFolder { return &DeltaFolder{} }

// Seq returns the sequence number of the folded state (0 when empty).
func (f *DeltaFolder) Seq() uint64 { return f.seq }

// Apply folds one validated delta. On any error the folded state is
// unchanged; ErrDeltaBase (wrapped) signals that the sender must snapshot.
func (f *DeltaFolder) Apply(d *LocalDelta) error {
	if d.BaseSeq != 0 {
		if f.reps == nil {
			return fmt.Errorf("%w: delta base %d against empty state", ErrDeltaBase, d.BaseSeq)
		}
		if d.BaseSeq != f.seq {
			return fmt.Errorf("%w: delta base %d, state is %d", ErrDeltaBase, d.BaseSeq, f.seq)
		}
	}
	// Verify before mutating so a bad delta cannot half-apply.
	removed := make(map[uint32]bool, len(d.Removed))
	if d.BaseSeq != 0 {
		for _, id := range d.Removed {
			if _, ok := f.reps[id]; !ok {
				return fmt.Errorf("%w: removal of unknown representative %d", ErrDeltaBase, id)
			}
			removed[id] = true
		}
		for _, a := range d.Added {
			if _, ok := f.reps[a.ID]; ok && !removed[a.ID] {
				return fmt.Errorf("%w: representative %d added twice", ErrDeltaBase, a.ID)
			}
		}
	}
	if d.BaseSeq == 0 {
		f.reps = make(map[uint32]Representative, len(d.Added))
	}
	for _, id := range d.Removed {
		delete(f.reps, id)
	}
	for _, a := range d.Added {
		f.reps[a.ID] = a.Rep
	}
	f.seq = d.Seq
	f.siteID = d.SiteID
	f.kind = d.Kind
	f.epsLocal = d.EpsLocal
	f.minPts = d.MinPts
	f.numObjects = d.NumObjects
	f.numClusters = d.NumClusters
	return nil
}

// Model materializes the folded state as a LocalModel, representatives in
// ascending id order (deterministic input for the global step). Nil before
// the first successful Apply.
func (f *DeltaFolder) Model() *LocalModel {
	if f.reps == nil {
		return nil
	}
	ids := make([]uint32, 0, len(f.reps))
	for id := range f.reps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	reps := make([]Representative, 0, len(ids))
	for _, id := range ids {
		reps = append(reps, f.reps[id])
	}
	return &LocalModel{
		SiteID:      f.siteID,
		Kind:        f.kind,
		EpsLocal:    f.epsLocal,
		MinPts:      f.minPts,
		Reps:        reps,
		NumObjects:  f.numObjects,
		NumClusters: f.numClusters,
	}
}
