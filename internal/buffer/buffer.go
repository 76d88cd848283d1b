// Package buffer implements the per-node message store with a byte-capacity
// limit (Table 5.1: 250 MB) and pluggable eviction. Relays in the paper have
// "a message buffer with a fixed size"; when a new message does not fit, the
// eviction policy decides which resident messages to drop.
package buffer

import (
	"errors"
	"fmt"
	"sort"

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
type Store struct {
	capacity int64
	used     int64
	policy   Policy
	order    []*message.Message // insertion order, for deterministic iteration
	dropped  int                // messages evicted before delivery

	// resident marks the handles of the messages in order; held marks every
	// handle the store has ever accepted. Add sets both bits, and eviction
	// and Remove clear only resident, so held answers "was this node
	// ever a custodian of the message" with one bit test (see Held). Each
	// costs one bit per handle up to the largest handle the store has held.
	resident bitset.Set
	held     bitset.Set

	// maxSize and maxQuality are the largest Size and the best Quality
	// among the resident messages, and nMaxSize and nMaxQuality count the
	// residents at them; all four are zero for an empty store. Add folds
	// each message in and Remove counts it out. When the last resident at
	// a maximum leaves, maxStale defers the rescan to the next Maxima call.
	maxSize     int64
	maxQuality  float64
	nMaxSize    int
	nMaxQuality int
	maxStale    bool
}

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
func (s *Store) Dropped() int { return s.dropped }

// Has reports whether the message with handle h is resident.
func (s *Store) Has(h message.Handle) bool { return s.resident.Has(int(h)) }

// Held reports whether the store has ever accepted the message with handle
// h, whether or not it is still resident.
func (s *Store) Held(h message.Handle) bool { return s.held.Has(int(h)) }

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
	s.used += m.Size
	s.foldMax(m)
	s.resident.Add(int(m.Handle))
	s.held.Add(int(m.Handle))
	return nil
}

// Remove deletes the message with handle h. It reports whether the message
// was resident.
func (s *Store) Remove(h message.Handle) bool {
	if !s.Has(h) {
		return false
	}
	for i, m := range s.order {
		if m.Handle == h {
			s.used -= m.Size
			s.order = append(s.order[:i], s.order[i+1:]...)
			s.dropMax(m)
			break
		}
	}
	s.resident.Remove(int(h))
	return true
}

// Messages returns the resident messages in insertion order. The returned
// slice is the store's internal list and is invalidated by the next Add or
// Remove; callers must not mutate it. (Routing scans every buffer on every
// exchange round, so handing out copies dominated early profiles.)
func (s *Store) Messages() []*message.Message {
	return s.order
}

// Maxima returns the largest Size and the best Quality among the resident
// messages, S_m and Q_m in Algorithm 3, or zeros when the store is empty.
// They are kept as messages come and go, so a call costs a rescan only
// after the last resident at a maximum has left.
func (s *Store) Maxima() (int64, float64) {
	if s.maxStale {
		s.maxSize, s.nMaxSize = 0, 0
		s.maxQuality, s.nMaxQuality = 0, 0
		s.maxStale = false
		for _, m := range s.order {
			s.foldMax(m)
		}
	}
	return s.maxSize, s.maxQuality
}

// foldMax counts a new resident into the running maxima.
func (s *Store) foldMax(m *message.Message) {
	if s.maxStale {
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
	if s.maxStale {
		return
	}
	if m.Size == s.maxSize {
		s.nMaxSize--
	}
	if m.Quality == s.maxQuality {
		s.nMaxQuality--
	}
	s.maxStale = s.nMaxSize == 0 || s.nMaxQuality == 0
}

// DropOldest evicts the earliest-created messages first (the ONE simulator's
// default FIFO behaviour).
type DropOldest struct{}

var _ Policy = DropOldest{}

// Name implements Policy.
func (DropOldest) Name() string { return "drop-oldest" }

// Victims implements Policy.
func (DropOldest) Victims(resident []*message.Message, need int64) []*message.Message {
	ordered := make([]*message.Message, len(resident))
	copy(ordered, resident)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].CreatedAt < ordered[j].CreatedAt
	})
	return takeUntil(ordered, need)
}

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
	ordered := make([]*message.Message, len(resident))
	copy(ordered, resident)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Priority != ordered[j].Priority {
			// Numerically higher Priority value = less important.
			return ordered[i].Priority > ordered[j].Priority
		}
		if ordered[i].Quality != ordered[j].Quality {
			return ordered[i].Quality < ordered[j].Quality
		}
		return ordered[i].CreatedAt < ordered[j].CreatedAt
	})
	return takeUntil(ordered, need)
}

// takeUntil returns the shortest prefix of ordered that frees need bytes
// (all of it when the whole buffer is too small).
func takeUntil(ordered []*message.Message, need int64) []*message.Message {
	var freed int64
	for i, m := range ordered {
		if freed >= need {
			return ordered[:i]
		}
		freed += m.Size
	}
	return ordered
}
