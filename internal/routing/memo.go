package routing

import (
	"dtnsim/internal/bitset"
	"dtnsim/internal/buffer"
	"dtnsim/internal/ident"
	"dtnsim/internal/interest"
	"dtnsim/internal/message"
)

// MemoHolder is implemented by a sender view that carries the walk memo of
// the contact direction being routed. The engine passes such a view for
// every routing call over an open contact; a plain NodeView gets a fresh
// memo, so its walk reads the whole buffer.
type MemoHolder interface {
	// WalkMemo returns the memo, and an empty slice the router appends its
	// offers to, so that the caller's array is reused from call to call.
	// A second call within one routing call may return a nil slice.
	WalkMemo() (*Memo, []Offer)
}

// Memo is one direction of one contact's routing walk, kept between the
// contact's rounds: the sender u's buffer slots that the receiver v may be
// offered, in buffer order, each with its destination verdict, and the
// union of the tag IDs of the entries that are not destinations.
//
// Between two rounds an entry changes only when a buffer loses or retags
// a copy, when v admits a copy or when v declares a direct interest. The
// memo is stamped with the state it was read from: the revision of both
// buffers (buffer.Store.Revision), v's buffer length and v's direct-row
// count (interest.Table.Directs). A walk on a memo whose revisions and
// direct count still match reads only what changed: it drops the entries
// for copies v admitted since (v only appended, so its length moved) and
// walks the slots u appended. Any other change rebuilds it from slot 0.
// DESIGN.md "Per-contact routing memo" gives the proof.
//
// The relay verdict moves with the weights, so a memo does not keep it.
//
// Beside each entry the memo keeps the award floor the engine last priced
// for offering that copy to v (see Floor), or unknownFloor. A floor reads
// v's rating of u and u's buffer maxima, which the memo stamps (see
// StampFloors), the two nodes' roles, which never change, and fields of the
// copy that change only through a retag: a retag of an entry's slot moves
// u's revision and so rebuilds the memo, which forgets every floor.
//
// A Memo refers to no node, buffer or message, only to its own arrays of
// slot numbers, tag IDs and floors, so a pooled memo pins nothing. Its zero
// value is empty and rebuilds on its first walk. Its fields fill the
// 128-byte size class: a crowd-scale run holds one per open contact
// direction.
type Memo struct {
	// entries are u's eligible slots in buffer order, each stored as the
	// slot for a copy whose receiver is not a destination and as ^slot, a
	// negative number, for a destination (see entrySlot).
	entries []int32
	// union is the union of the tag IDs of the non-destination entries.
	// After an entry leaves it may hold more IDs than that (unionStale);
	// a superset at the ceiling still implies every member is, so it is
	// made exact only when it fails the ceiling (see walk.atCeiling).
	union bitset.Set
	// floors is aligned with entries: each entry's cached award floor, or
	// unknownFloor. floorRating, floorMaxSize and floorMaxQuality are the
	// stamp the floors were priced under (see StampFloors).
	floors          []float64
	floorRating     float64
	floorMaxSize    int64
	floorMaxQuality float64

	// built is set once a walk has filled the memo; the stamps are valid
	// only then. uLen is how many of u's slots the memo has walked. walks
	// counts the memo's walks since the last Walks call, and rebuilds
	// those of them that started from slot 0.
	built      bool
	unionStale bool
	uRev       uint32
	vRev       uint32
	uLen       int32
	vLen       int32
	vDirects   int32
	walks      uint32
	rebuilds   uint32
}

// unknownFloor marks an entry whose award floor has not been priced since
// the memo was built or the stamp last moved.
const unknownFloor = -1

// entrySlot returns the buffer slot of a memo entry.
func entrySlot(e int32) int32 {
	if e < 0 {
		return ^e
	}
	return e
}

// Reset empties the memo for reuse by another contact direction, keeping
// its arrays.
func (m *Memo) Reset() {
	*m = Memo{entries: m.entries[:0], union: m.union[:0], floors: m.floors[:0]}
}

// Walks returns how many walks ran on the memo since the last call and how
// many of them rebuilt it, and zeroes both counts.
func (m *Memo) Walks() (walks, rebuilds uint32) {
	walks, rebuilds = m.walks, m.rebuilds
	m.walks, m.rebuilds = 0, 0
	return walks, rebuilds
}

// Len returns the number of entries the last walk left in the memo.
func (m *Memo) Len() int { return len(m.entries) }

// Slot returns the buffer slot of entry k, 0 ≤ k < Len().
func (m *Memo) Slot(k int) int { return int(entrySlot(m.entries[k])) }

// Floor returns the award floor cached for entry k, and whether there is
// one.
func (m *Memo) Floor(k int) (float64, bool) {
	f := m.floors[k]
	return f, f != unknownFloor
}

// SetFloor caches the award floor priced for entry k, a destination
// entry. A floor is never negative: the award it bounds is not.
func (m *Memo) SetFloor(k int, floor float64) { m.floors[k] = floor }

// StampFloors forgets every cached floor unless v's rating of u and u's
// buffer maxima equal the stamp the floors were priced under, and stamps
// the memo with them. The engine calls it once per routing call, before it
// reads the first floor.
func (m *Memo) StampFloors(rating float64, maxSize int64, maxQuality float64) {
	if rating == m.floorRating && maxSize == m.floorMaxSize && maxQuality == m.floorMaxQuality {
		return
	}
	m.floorRating, m.floorMaxSize, m.floorMaxQuality = rating, maxSize, maxQuality
	for k := range m.floors {
		m.floors[k] = unknownFloor
	}
}

// walk brings the memo up to date and visits its entries, in buffer order,
// collecting the router's offers. All six routers iterate through it.
type walk struct {
	memo   *Memo
	msgs   []*message.Message
	tagIDs [][]int32
	offers []Offer
	i      int
}

// newWalk updates u's memo for v (see Memo), or fills a fresh one when u
// carries none, and returns a walk over its entries.
func newWalk(u, v NodeView) walk {
	var (
		memo   *Memo
		offers []Offer
	)
	if h, ok := u.(MemoHolder); ok {
		memo, offers = h.WalkMemo()
	} else {
		memo = new(Memo)
	}
	memo.update(u, v)
	b := u.Buffer()
	return walk{memo: memo, msgs: b.Messages(), tagIDs: b.TagIDs(), offers: offers, i: -1}
}

// update brings the memo in line with u's and v's buffers and v's direct
// interests.
//
// A slot is eligible when v does not hold the message and is not on this
// copy's path (loop avoidance: the UUID dedup makes re-offering to past
// custodians pure overhead). Two bit tests on v's buffer settle almost
// every slot. A resident message is not eligible. A message v never held
// is: a node enters a copy's path only through Message.CopyFor, and the
// engine keeps that clone only when the node's buffer accepts it, so a node
// off the ever-held set is off every path of the message. Only when v held
// the message once and dropped it does the walk load the copy and scan its
// path; a copy's path does not change while u holds it, so the memo scans
// it once.
//
// An eligible slot's tag IDs come from the buffer's column (see
// buffer.Store.TagIDs). An empty slot is filled with KeywordIDs, which
// loads the copy once. Slots are filled in buffer order and only where the
// slot is eligible, so the interner assigns IDs in the order a walk over
// every copy would (DESIGN.md "Per-contact routing memo").
func (m *Memo) update(u, v NodeView) {
	ub, vb, vt := u.Buffer(), v.Buffer(), v.Interests()
	m.walks++
	switch {
	case !m.built || m.uRev != ub.Revision() || m.vRev != vb.Revision() || int(m.vDirects) != vt.Directs():
		m.rebuilds++
		m.built = true
		m.uRev, m.vRev, m.vDirects = ub.Revision(), vb.Revision(), int32(vt.Directs())
		m.uLen, m.vLen = 0, int32(vb.Len())
		m.entries = m.entries[:0]
		m.floors = m.floors[:0]
		m.union = m.union[:0]
		m.unionStale = false
	case int(m.vLen) != vb.Len():
		// v only appended since: drop the entries for copies it now
		// holds.
		m.vLen = int32(vb.Len())
		m.dropResident(ub.Handles(), vb)
	}
	handles, tagIDs, msgs := ub.Handles(), ub.TagIDs(), ub.Messages()
	in, vID := u.Interests().Interner(), v.ID()
	for i := int(m.uLen); i < len(handles); i++ {
		h := handles[i]
		if vb.Has(h) || vb.Held(h) && onPath(msgs[i], vID) {
			continue
		}
		ids := tagIDs[i]
		if ids == nil {
			ids = KeywordIDs(msgs[i], in)
			tagIDs[i] = ids
		}
		if vt.HasDirectAnyID(ids) {
			m.entries = append(m.entries, ^int32(i))
		} else {
			m.entries = append(m.entries, int32(i))
			m.addUnion(ids)
		}
		m.floors = append(m.floors, unknownFloor)
	}
	m.uLen = int32(len(handles))
}

// dropResident removes the entries for u's copies whose message v now
// holds, with their floors. When one of them was not a destination, the
// union may now hold more than the remaining entries' tags.
func (m *Memo) dropResident(handles []message.Handle, vb *buffer.Store) {
	n := 0
	for k, e := range m.entries {
		if vb.Has(handles[entrySlot(e)]) {
			m.unionStale = m.unionStale || e >= 0
			continue
		}
		m.entries[n], m.floors[n] = e, m.floors[k]
		n++
	}
	m.entries, m.floors = m.entries[:n], m.floors[:n]
}

// addUnion adds tag IDs to the union of the non-destination entries.
func (m *Memo) addUnion(ids []int32) {
	for _, id := range ids {
		m.union.Add(int(id))
	}
}

// next advances to the next entry; it is false once the entries are
// exhausted.
func (w *walk) next() bool {
	w.i++
	return w.i < len(w.memo.entries)
}

// dest reports whether v holds a direct interest in one of the entry's
// tags: the destination test of every router.
func (w *walk) dest() bool { return w.memo.entries[w.i] < 0 }

// msg returns the copy of the entry the walk stands on.
func (w *walk) msg() *message.Message { return w.msgs[entrySlot(w.memo.entries[w.i])] }

// ids returns the interned tag IDs of the entry the walk stands on.
func (w *walk) ids() []int32 { return w.tagIDs[entrySlot(w.memo.entries[w.i])] }

// offer offers the copy of the entry the walk stands on in the given role,
// naming the entry (see Offer.MemoEntry).
func (w *walk) offer(role PeerRole) {
	w.offers = append(w.offers, Offer{Msg: w.msg(), Role: role, entry: int32(w.i) + 1})
}

// atCeiling reports whether ut holds every tag of every entry that is not
// a destination at the ceiling (interest.Table.AtCeilingSet over the
// union), so that none of them is a relay. A stale union is a superset of
// the exact one: when it passes, so would the exact union, and when it
// fails, the walk rebuilds it from the entries and tests again.
func (w *walk) atCeiling(ut *interest.Table) bool {
	m := w.memo
	if ut.AtCeilingSet(m.union) {
		return true
	}
	if !m.unionStale {
		return false
	}
	m.union, m.unionStale = m.union[:0], false
	for _, e := range m.entries {
		if e >= 0 {
			m.addUnion(w.tagIDs[e])
		}
	}
	return ut.AtCeilingSet(m.union)
}

// onPath reports whether the copy m passed through node id.
func onPath(m *message.Message, id ident.NodeID) bool {
	for _, hop := range m.Path {
		if hop == id {
			return true
		}
	}
	return false
}
