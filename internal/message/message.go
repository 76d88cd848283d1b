// Package message defines the universal message format used throughout the
// network (Paper I §3.1, Paper II §3.1): multimedia payload metadata plus
// keyword annotations, a unique identifier for deduplication, creation
// timestamp, source, priority, and quality. It also carries the in-band
// state the incentive and reputation mechanisms need: the hop path, the
// per-hop message ratings forwarded toward the destination, and the
// annotations added en route by content enrichment.
package message

import (
	"fmt"
	"time"

	"dtnsim/internal/ident"
)

// Priority is the source-assigned priority level of a message. The paper
// encodes it 1–3 for high, medium, low (Table 3.1, P_s).
type Priority int

// Priority levels. Numerically lower is more important, matching the
// paper's "1-3 for high, medium, low".
const (
	PriorityHigh   Priority = 1
	PriorityMedium Priority = 2
	PriorityLow    Priority = 3
)

// Valid reports whether p is one of the defined levels.
func (p Priority) Valid() bool { return p >= PriorityHigh && p <= PriorityLow }

// String names the level.
func (p Priority) String() string {
	switch p {
	case PriorityHigh:
		return "high"
	case PriorityMedium:
		return "medium"
	case PriorityLow:
		return "low"
	default:
		return fmt.Sprintf("priority-%d", int(p))
	}
}

// Annotation is one keyword tag on a message, with provenance: who added it
// and at which point in the message's journey. Source annotations have
// Hop 0; tags added by relays during content enrichment record the relay.
type Annotation struct {
	Keyword string
	AddedBy ident.NodeID
	// Hop is the length of the hop path when the tag was added (0 = source).
	Hop int
	// At is the virtual time the tag was added.
	At time.Duration
}

// PathRating is a rating assigned to a node in the message's path by an
// earlier hop, carried with the message so the destination can use the
// ratings of all hops when computing the incentive award (Paper I §3.3:
// "the delivering device also sends the destination the ratings for the
// message from all the hops in the path").
type PathRating struct {
	// Rater is the node that issued the rating.
	Rater ident.NodeID
	// Subject is the rated node (the source or an enriching relay).
	Subject ident.NodeID
	// Rating is on the paper's 0–5 scale.
	Rating float64
}

// Handle is a message's dense index within one run: the engine assigns
// handles from 0 in creation order, and every copy of a message carries its
// handle. Per-message state on the hot path (buffer residency, the
// first-deliverer record) is indexed by handle; the ID string stays for
// events, traces and reports.
type Handle int32

// Message is a single DTN bundle. Messages are passed by pointer and owned
// by node buffers; the engine copies per-node mutable state (path, ratings,
// annotations) when a message is replicated to another node, since each copy
// evolves independently from that point on.
type Message struct {
	// ID is the network-wide unique identifier (the paper's UUID).
	ID ident.MessageID
	// Handle is the message's dense index, shared by all its copies.
	Handle Handle
	// Source is the originating node.
	Source ident.NodeID
	// SourceRole is the originator's rank, used by the software-factor
	// incentive (R_u when the source itself forwards).
	SourceRole ident.Role
	// CreatedAt is the virtual creation time (the paper's timestamp field).
	CreatedAt time.Duration
	// Size is the payload size in bytes (Table 5.1 default: 1 MB).
	Size int64
	// Priority is the source-assigned level P_s.
	Priority Priority
	// Quality is the content quality Q in (0, 1]; the paper rates message
	// quality relative to the best message in the sender's buffer (Q/Q_m).
	Quality float64
	// Annotations are the keyword tags, source tags first, enrichment tags
	// appended in hop order.
	Annotations []Annotation
	// TrueKeywords is the hidden ground truth of what the payload actually
	// depicts. It stands in for the human judgement the deployed system
	// gets from users: a tag is "relevant" iff it appears here. The slice
	// is shared between copies (ground truth never changes). It is set
	// when the message is created, before any relay tags it: Annotate
	// judges each relay tag as it is added (see RelevantTags).
	TrueKeywords []string
	// Path is the sequence of custodians, starting with the source. The
	// last element is the current holder.
	Path []ident.NodeID
	// PathRatings are ratings attached by hops along the way.
	PathRatings []PathRating
	// PromisedTokens is the incentive promise attached by the forwarder to
	// this copy (Paper II §3.3: the message travels "along with the
	// promised value of reward").
	PromisedTokens float64
	// CopiesLeft is router-private replication state used by
	// Spray-and-Wait (the L counter); other routers ignore it.
	CopiesLeft int

	// kwCache memoises Keywords(); Annotate invalidates it. Routing and
	// incentive calculations read the tag set on every exchange round, so
	// rebuilding it per call dominated early profiles.
	kwCache []string
	// KwIDs is the routing layer's interned form of Keywords. It is owned
	// by the routing package (see routing.KeywordIDs) and invalidated
	// whenever the tag set changes; other packages must treat it as
	// opaque. A buffer holding the copy keeps the same slice in its
	// tag-ID column (see buffer.Store.TagIDs).
	KwIDs []int32
	// relevantTags counts the enrichment annotations (Hop > 0) whose
	// keyword is in TrueKeywords; see RelevantTags.
	relevantTags int
}

// New creates a source message with the given identity, handle and payload
// metadata. The source is recorded as the first custodian.
func New(id ident.MessageID, h Handle, src ident.NodeID, role ident.Role, now time.Duration, size int64, prio Priority, quality float64) (*Message, error) {
	if !prio.Valid() {
		return nil, fmt.Errorf("message: invalid priority %d", int(prio))
	}
	if !(quality > 0 && quality <= 1) {
		return nil, fmt.Errorf("message: quality must be in (0, 1], got %v", quality)
	}
	if size <= 0 {
		return nil, fmt.Errorf("message: size must be positive, got %d", size)
	}
	return &Message{
		ID:         id,
		Handle:     h,
		Source:     src,
		SourceRole: role,
		CreatedAt:  now,
		Size:       size,
		Priority:   prio,
		Quality:    quality,
		Path:       []ident.NodeID{src},
	}, nil
}

// Keywords returns the message's current tag set in annotation order,
// without duplicates. The returned slice is shared across calls and must
// not be mutated by callers.
func (m *Message) Keywords() []string {
	if m.kwCache != nil {
		return m.kwCache
	}
	out := make([]string, 0, len(m.Annotations))
	for _, a := range m.Annotations {
		dup := false
		for _, kw := range out {
			if kw == a.Keyword {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, a.Keyword)
		}
	}
	m.kwCache = out
	return out
}

// HasKeyword reports whether kw is among the message's tags.
func (m *Message) HasKeyword(kw string) bool {
	for _, a := range m.Annotations {
		if a.Keyword == kw {
			return true
		}
	}
	return false
}

// Annotate appends a tag. Duplicate keywords are ignored (the UUID-based
// dedup in the paper's message format extends naturally to tags). It
// reports whether the tag was added.
func (m *Message) Annotate(kw string, by ident.NodeID, at time.Duration) bool {
	if kw == "" || m.HasKeyword(kw) {
		return false
	}
	hop := len(m.Path) - 1
	m.Annotations = append(m.Annotations, Annotation{
		Keyword: kw,
		AddedBy: by,
		Hop:     hop,
		At:      at,
	})
	if hop > 0 && m.Relevant(kw) {
		m.relevantTags++
	}
	m.kwCache = nil
	m.KwIDs = nil
	return true
}

// Relevant reports whether a tag matches the hidden ground truth; this is
// the simulated stand-in for the destination user's judgement.
func (m *Message) Relevant(kw string) bool {
	for _, t := range m.TrueKeywords {
		if t == kw {
			return true
		}
	}
	return false
}

// RelevantTags returns how many enrichment tags on the message, those
// added after it left its source (Hop > 0), the ground truth marks
// relevant: the count a destination pays I_t for. Annotate keeps it, and
// copies carry it.
func (m *Message) RelevantTags() int { return m.relevantTags }

// TagsAddedBy returns the enrichment tags contributed by a given node.
func (m *Message) TagsAddedBy(id ident.NodeID) []Annotation {
	var out []Annotation
	for _, a := range m.Annotations {
		if a.AddedBy == id && a.Hop > 0 {
			out = append(out, a)
		}
	}
	return out
}

// FirstEnrichment reports whether annotation i is an enrichment tag (Hop >
// 0) and the first one its relay added, and names that relay. A scan of i
// over Annotations so visits each enriching relay once, in first-tag
// order, in place.
func (m *Message) FirstEnrichment(i int) (ident.NodeID, bool) {
	a := &m.Annotations[i]
	if a.Hop == 0 {
		return 0, false
	}
	for _, b := range m.Annotations[:i] {
		if b.Hop > 0 && b.AddedBy == a.AddedBy {
			return 0, false
		}
	}
	return a.AddedBy, true
}

// HopCount returns the number of transfers so far (path length minus one).
func (m *Message) HopCount() int {
	if len(m.Path) == 0 {
		return 0
	}
	return len(m.Path) - 1
}

// CopyFor clones the message for handover to a new custodian. The clone keeps
// the ID and handle and gets independent annotation, path, and rating slices
// (each copy evolves on its own from here) while sharing the immutable
// ground-truth keyword slice. The tag set is unchanged by the copy, so the
// clone also shares the memoised Keywords and KwIDs slices; those are only
// ever replaced, never written in place, and Annotate drops them from the
// copy it changes.
func (m *Message) CopyFor(next ident.NodeID) *Message {
	clone := *m
	clone.Annotations = make([]Annotation, len(m.Annotations))
	copy(clone.Annotations, m.Annotations)
	clone.Path = make([]ident.NodeID, len(m.Path), len(m.Path)+1)
	copy(clone.Path, m.Path)
	clone.Path = append(clone.Path, next)
	clone.PathRatings = make([]PathRating, len(m.PathRatings))
	copy(clone.PathRatings, m.PathRatings)
	return &clone
}

// AttachRating records a path rating carried with this copy.
func (m *Message) AttachRating(r PathRating) {
	m.PathRatings = append(m.PathRatings, r)
}

// String summarises the message for logs.
func (m *Message) String() string {
	return fmt.Sprintf("%s[src=%s prio=%s q=%.2f tags=%d hops=%d]",
		m.ID, m.Source, m.Priority, m.Quality, len(m.Annotations), m.HopCount())
}
