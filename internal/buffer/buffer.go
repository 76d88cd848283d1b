// Package buffer implements the per-node message store with a byte-capacity
// limit (Table 5.1: 250 MB) and pluggable eviction. Relays in the paper have
// "a message buffer with a fixed size"; when a new message does not fit, the
// eviction policy decides which resident messages to drop.
package buffer

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"dtnsim/internal/bitset"
	"dtnsim/internal/ident"
	"dtnsim/internal/message"
)

// ErrTooLarge is returned when a message is bigger than the whole buffer.
var ErrTooLarge = errors.New("buffer: message exceeds buffer capacity")

// ErrDuplicate is returned when the buffer already holds the message; the
// paper's UUID "makes sure that the message does not get duplicated in any
// device".
var ErrDuplicate = errors.New("buffer: duplicate message")

// Policy selects eviction victims. Given the resident messages (in insertion
// order) and the number of bytes that must be freed, it returns the
// messages to evict. Implementations must return enough bytes or the insert
// fails.
type Policy interface {
	// Victims picks messages to evict to free at least need bytes.
	Victims(resident []*message.Message, need int64) []*message.Message
	// Name identifies the policy in reports.
	Name() string
}

// Store is a capacity-bounded message buffer. It identifies messages by
// handle: the copies of one message share its handle, and the store holds
// at most one of them. It is not safe for concurrent use; the simulation
// engine is single-threaded per run.
//
// Its fields fill the 160-byte size class exactly: a network of 20 000
// nodes holds 20 000 stores, so a field that pushed the struct into the
// next class would cost more heap than the columns save per copy.
type Store struct {
	capacity int64
	used     int64
	policy   Policy

	// The resident messages in insertion order, the deterministic
	// iteration order, as three parallel columns: order holds the copies,
	// handles their Handle, and tagIDs their interned tag IDs. Routing
	// settles almost every copy it scans from the two narrow columns and
	// loads a copy only to offer it (see TagIDs). Add, Remove and eviction
	// keep the columns in step, and Annotate is the one way to retag a
	// resident copy. A vacated slot is zeroed in all three, so the backing
	// arrays pin no removed copy.
	order   []*message.Message
	handles []message.Handle
	tagIDs  [][]int32

	// custody holds two bits per handle h: bit 2h is set while the
	// message is resident (see Has), and bit 2h+1 once the store has ever
	// accepted it (see Held). Add sets both bits, and eviction and Remove
	// clear only the resident one, so the held bit answers "was this node
	// ever a custodian of the message" with one bit test. The set grows to
	// two bits per handle up to the largest handle the store has held, and
	// a handle's two bits share a word.
	custody bitset.Set

	// maxSize and maxQuality are the largest Size and the best Quality
	// among the resident messages, and nMaxSize and nMaxQuality count the
	// residents at them; all four are zero for an empty store. Add folds
	// each message in and Remove counts it out. When the last resident at
	// a maximum leaves, nMaxSize becomes staleMaxima, which defers the
	// rescan to the next Maxima call (a flag of its own would take the
	// byte rev needs).
	maxSize     int64
	maxQuality  float64
	nMaxSize    int32
	nMaxQuality int32
	dropped     int32 // messages evicted before delivery

	// rev is the store's revision (see Revision): it moves on every
	// removal and every retag of a resident copy whose tag-ID slot is
	// filled, never on an append.
	rev uint32
}

// staleMaxima is nMaxSize while the running maxima await a rescan.
const staleMaxima = -1

// New creates a store with the given byte capacity and eviction policy. A
// nil policy defaults to DropOldest.
func New(capacity int64, policy Policy) (*Store, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("buffer: capacity must be positive, got %d", capacity)
	}
	if policy == nil {
		policy = DropOldest{}
	}
	return &Store{capacity: capacity, policy: policy}, nil
}

// Capacity returns the byte capacity.
func (s *Store) Capacity() int64 { return s.capacity }

// Free returns the bytes available without eviction.
func (s *Store) Free() int64 { return s.capacity - s.used }

// Len returns the number of resident messages.
func (s *Store) Len() int { return len(s.order) }

// Dropped returns how many messages have been evicted so far.
func (s *Store) Dropped() int { return int(s.dropped) }

// Revision returns the store's revision. It moves on every removal,
// eviction included, and on every retag of a resident copy whose tag-ID
// slot is filled (see Annotate), and never on an append. So while it
// stands still, every resident copy keeps its slot in Messages, every
// copy with a filled slot keeps its tag set, and copies only join at the
// end. A routing walk that remembers what it found in a buffer
// (routing.Memo) stamps the buffer's revision and length: an equal
// revision and a longer buffer mean that only the slots past the old
// length are new. It counts in 32 bits, so a store would have to see 2^32
// such changes between two reads of one contact's walk before two stamps
// could collide.
func (s *Store) Revision() uint32 { return s.rev }

// Has reports whether the message with handle h is resident.
func (s *Store) Has(h message.Handle) bool { return s.custody.Has(2 * int(h)) }

// Held reports whether the store has ever accepted the message with handle
// h, whether or not it is still resident.
func (s *Store) Held(h message.Handle) bool { return s.custody.Has(2*int(h) + 1) }

// Get returns the resident message with the given ID, or nil. It scans the
// buffer: lookups by ID are for operator calls and tests, not the hot path.
func (s *Store) Get(id ident.MessageID) *message.Message {
	for _, m := range s.order {
		if m.ID == id {
			return m
		}
	}
	return nil
}

// Add inserts a message, evicting per policy if needed. It returns
// ErrDuplicate if the message is resident and ErrTooLarge if it can never
// fit.
func (s *Store) Add(m *message.Message) error {
	if m.Size > s.capacity {
		return ErrTooLarge
	}
	if s.Has(m.Handle) {
		return ErrDuplicate
	}
	if need := m.Size - s.Free(); need > 0 {
		for _, v := range s.policy.Victims(s.Messages(), need) {
			if s.Remove(v.Handle) {
				s.dropped++
			}
		}
		if s.Free() < m.Size {
			return fmt.Errorf("buffer: policy %s freed too little for %d bytes", s.policy.Name(), m.Size)
		}
	}
	s.order = append(s.order, m)
	s.handles = append(s.handles, m.Handle)
	s.tagIDs = append(s.tagIDs, nil)
	s.used += m.Size
	s.foldMax(m)
	s.custody.Add(2*int(m.Handle) + 1)
	s.custody.Add(2 * int(m.Handle))
	return nil
}

// Remove deletes the message with handle h. It reports whether the message
// was resident.
func (s *Store) Remove(h message.Handle) bool {
	if !s.Has(h) {
		return false
	}
	i := slices.Index(s.handles, h)
	m := s.order[i]
	s.used -= m.Size
	s.dropMax(m)
	// slices.Delete zeroes the vacated last slot of each column.
	s.order = slices.Delete(s.order, i, i+1)
	s.handles = slices.Delete(s.handles, i, i+1)
	s.tagIDs = slices.Delete(s.tagIDs, i, i+1)
	s.custody.Remove(2 * int(h))
	s.rev++
	return true
}

// Annotate tags m with kw, as m.Annotate does, and reports whether the tag
// was added. When m is the resident copy of its message and its tag-ID
// slot is filled, the slot is emptied with the tag set, routing re-interns
// the copy on its next read, and the revision moves. An empty slot stays
// empty and the revision stands: only a routing walk fills a slot, and it
// fills it before it remembers the copy as an offer candidate, so no walk
// remembers anything of a copy whose slot is empty that a tag could
// change. So the tags relay enrichment gives the copy it has just added
// move nothing. Annotate is the only way to tag a resident copy:
// m.Annotate alone would leave a filled slot holding the old IDs. m may be
// a copy the store does not hold, which leaves the columns and the
// revision alone.
func (s *Store) Annotate(m *message.Message, kw string, by ident.NodeID, at time.Duration) bool {
	if !m.Annotate(kw, by, at) {
		return false
	}
	if s.Has(m.Handle) {
		if i := slices.Index(s.handles, m.Handle); s.order[i] == m && s.tagIDs[i] != nil {
			s.tagIDs[i] = nil
			s.rev++
		}
	}
	return true
}

// Messages returns the resident messages in insertion order. The returned
// slice is the store's internal list and is invalidated by the next Add or
// Remove; callers must not mutate it. (Routing scans every buffer on every
// exchange round, so handing out copies dominated early profiles.)
func (s *Store) Messages() []*message.Message {
	return s.order
}

// Handles returns the resident messages' handles, parallel to Messages and
// valid as long.
func (s *Store) Handles() []message.Handle {
	return s.handles
}

// TagIDs returns the resident messages' interned tag IDs, parallel to
// Messages and valid as long. Slot i is Messages()[i].KwIDs, the shared
// slice routing.KeywordIDs memoises, or nil while no routing walk has read
// that copy since it was added or last retagged: Add leaves the slot
// empty. The routing layer fills a nil slot in place with the copy's
// KeywordIDs, where it would have computed them anyway, so the interner
// assigns IDs in the same order as a walk over the copies; no other caller
// writes the slice.
func (s *Store) TagIDs() [][]int32 {
	return s.tagIDs
}

// Maxima returns the largest Size and the best Quality among the resident
// messages, S_m and Q_m in Algorithm 3, or zeros when the store is empty.
// They are kept as messages come and go, so a call costs a rescan only
// after the last resident at a maximum has left.
func (s *Store) Maxima() (int64, float64) {
	if s.nMaxSize == staleMaxima {
		s.maxSize, s.nMaxSize = 0, 0
		s.maxQuality, s.nMaxQuality = 0, 0
		for _, m := range s.order {
			s.foldMax(m)
		}
	}
	return s.maxSize, s.maxQuality
}

// foldMax counts a new resident into the running maxima.
func (s *Store) foldMax(m *message.Message) {
	if s.nMaxSize == staleMaxima {
		return
	}
	switch {
	case s.nMaxSize == 0 || m.Size > s.maxSize:
		s.maxSize, s.nMaxSize = m.Size, 1
	case m.Size == s.maxSize:
		s.nMaxSize++
	}
	switch {
	case s.nMaxQuality == 0 || m.Quality > s.maxQuality:
		s.maxQuality, s.nMaxQuality = m.Quality, 1
	case m.Quality == s.maxQuality:
		s.nMaxQuality++
	}
}

// dropMax counts a departing resident out of the running maxima, marking
// them stale when it was the last at either one.
func (s *Store) dropMax(m *message.Message) {
	if s.nMaxSize == staleMaxima {
		return
	}
	if m.Size == s.maxSize {
		s.nMaxSize--
	}
	if m.Quality == s.maxQuality {
		s.nMaxQuality--
	}
	if s.nMaxSize == 0 || s.nMaxQuality == 0 {
		s.nMaxSize = staleMaxima
	}
}

// DropOldest evicts the earliest-created messages first (the ONE simulator's
// default FIFO behaviour).
type DropOldest struct{}

var _ Policy = DropOldest{}

// Name implements Policy.
func (DropOldest) Name() string { return "drop-oldest" }

// Victims implements Policy.
func (DropOldest) Victims(resident []*message.Message, need int64) []*message.Message {
	return leastUntil(resident, need, createdBefore)
}

// createdBefore orders DropOldest's victims: oldest first.
func createdBefore(a, b *message.Message) bool { return a.CreatedAt < b.CreatedAt }

// DropLowPriority evicts low-priority (and, within a priority level, oldest)
// messages first. The paper's scheme "prioritizes messages based on the
// quality as well as the assigned priority" (Paper I §5.F); this policy is
// the buffer-side half of that preference and is the default for the
// incentive scheme.
type DropLowPriority struct{}

var _ Policy = DropLowPriority{}

// Name implements Policy.
func (DropLowPriority) Name() string { return "drop-low-priority" }

// Victims implements Policy.
func (DropLowPriority) Victims(resident []*message.Message, need int64) []*message.Message {
	return leastUntil(resident, need, lessImportant)
}

// lessImportant orders DropLowPriority's victims: lowest priority first,
// then lowest quality, then oldest.
func lessImportant(a, b *message.Message) bool {
	if a.Priority != b.Priority {
		// Numerically higher Priority value = less important.
		return a.Priority > b.Priority
	}
	if a.Quality != b.Quality {
		return a.Quality < b.Quality
	}
	return a.CreatedAt < b.CreatedAt
}

// leastUntil returns the shortest prefix of resident, stably sorted by
// less, that frees need bytes (all of resident when the whole buffer is too
// small). It selects the prefix by repeated minimum: each pass takes the
// least message that sorts after the last one taken, and a tie goes to the
// earlier slot, which is exactly the stable sort's order. So it neither
// copies nor sorts the buffer: an insert into a full buffer usually evicts
// one message, found in one pass.
func leastUntil(resident []*message.Message, need int64, less func(a, b *message.Message) bool) []*message.Message {
	var victims []*message.Message
	var freed int64
	last := -1
	for freed < need && len(victims) < len(resident) {
		next := -1
		for i, m := range resident {
			if last >= 0 {
				// Skip what the stable order puts at or before the last
				// victim.
				if p := resident[last]; !less(p, m) && (less(m, p) || i <= last) {
					continue
				}
			}
			if next < 0 || less(m, resident[next]) {
				next = i
			}
		}
		victims = append(victims, resident[next])
		freed += resident[next].Size
		last = next
	}
	return victims
}
