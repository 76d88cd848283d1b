package buffer

import (
	"errors"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"dtnsim/internal/ident"
	"dtnsim/internal/message"
	"dtnsim/internal/sim"
)

// handles gives every message ID the tests use its own handle, as the
// engine's single minting point does.
var handles = map[string]message.Handle{}

// h returns the handle of the message with the given ID.
func h(id string) message.Handle {
	hd, ok := handles[id]
	if !ok {
		hd = message.Handle(len(handles))
		handles[id] = hd
	}
	return hd
}

func msg(t *testing.T, id string, size int64, prio message.Priority, quality float64, created time.Duration) *message.Message {
	t.Helper()
	m, err := message.New(ident.MessageID(id), h(id), 1, ident.RoleOperator, created, size, prio, quality)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Error("zero capacity must fail")
	}
	s, err := New(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.policy.Name() != "drop-oldest" {
		t.Errorf("default policy = %s", s.policy.Name())
	}
}

func TestAddGetRemove(t *testing.T) {
	s, _ := New(1000, DropOldest{})
	m := msg(t, "a", 100, message.PriorityHigh, 0.5, 0)
	if err := s.Add(m); err != nil {
		t.Fatal(err)
	}
	if !s.Has(h("a")) || s.Get("a") != m || s.Len() != 1 || s.used != 100 || s.Free() != 900 {
		t.Error("store state wrong after Add")
	}
	if err := s.Add(m); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate add error = %v", err)
	}
	if !s.Remove(h("a")) {
		t.Error("Remove returned false")
	}
	if s.Remove(h("a")) {
		t.Error("second Remove returned true")
	}
	if s.used != 0 || s.Len() != 0 {
		t.Error("store not empty after Remove")
	}
}

// TestHeldOutlivesResidency pins the two bits per handle: Add sets both
// resident and ever-held, and both ways out of the buffer — Remove and
// eviction — clear only residency.
func TestHeldOutlivesResidency(t *testing.T) {
	s, _ := New(200, DropOldest{})
	if s.Held(h("removed")) {
		t.Fatal("empty store reports a held message")
	}
	s.Add(msg(t, "removed", 100, message.PriorityHigh, 0.5, 1*time.Second))
	evicted := msg(t, "evicted", 100, message.PriorityHigh, 0.5, 2*time.Second)
	s.Add(evicted)
	for _, id := range []string{"removed", "evicted"} {
		if !s.Has(h(id)) || !s.Held(h(id)) {
			t.Fatalf("%s: Has %v Held %v after Add, want both", id, s.Has(h(id)), s.Held(h(id)))
		}
	}
	s.Remove(h("removed"))
	if err := s.Add(msg(t, "incoming", 150, message.PriorityHigh, 0.5, 3*time.Second)); err != nil { // evicts "evicted"
		t.Fatal(err)
	}
	for _, id := range []string{"removed", "evicted"} {
		if s.Has(h(id)) || !s.Held(h(id)) {
			t.Errorf("%s: Has %v Held %v after leaving, want false true", id, s.Has(h(id)), s.Held(h(id)))
		}
	}
	if s.Held(h("never")) {
		t.Error("a handle the store never accepted reads as held")
	}
	// A copy of a message the store once held is accepted again.
	if err := s.Add(evicted.CopyFor(2)); err != nil || !s.Has(evicted.Handle) {
		t.Errorf("re-adding a dropped message: err %v, resident %v", err, s.Has(evicted.Handle))
	}
}

func TestAddTooLarge(t *testing.T) {
	s, _ := New(100, nil)
	if err := s.Add(msg(t, "big", 200, message.PriorityHigh, 0.5, 0)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("error = %v, want ErrTooLarge", err)
	}
}

func TestEvictionDropOldest(t *testing.T) {
	s, _ := New(300, DropOldest{})
	s.Add(msg(t, "old", 100, message.PriorityHigh, 0.9, 1*time.Second))
	s.Add(msg(t, "mid", 100, message.PriorityHigh, 0.9, 2*time.Second))
	s.Add(msg(t, "new", 100, message.PriorityHigh, 0.9, 3*time.Second))
	if err := s.Add(msg(t, "incoming", 150, message.PriorityLow, 0.1, 4*time.Second)); err != nil {
		t.Fatal(err)
	}
	if s.Has(h("old")) || s.Has(h("mid")) {
		t.Error("oldest messages should have been evicted")
	}
	if !s.Has(h("new")) || !s.Has(h("incoming")) {
		t.Error("wrong victims evicted")
	}
	if s.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", s.Dropped())
	}
}

func TestEvictionDropLowPriority(t *testing.T) {
	s, _ := New(300, DropLowPriority{})
	s.Add(msg(t, "high", 100, message.PriorityHigh, 0.9, 1*time.Second))
	s.Add(msg(t, "low", 100, message.PriorityLow, 0.9, 2*time.Second))
	s.Add(msg(t, "med", 100, message.PriorityMedium, 0.9, 3*time.Second))
	if err := s.Add(msg(t, "incoming", 100, message.PriorityHigh, 0.5, 4*time.Second)); err != nil {
		t.Fatal(err)
	}
	if s.Has(h("low")) {
		t.Error("low priority message should be the victim")
	}
	if !s.Has(h("high")) || !s.Has(h("med")) || !s.Has(h("incoming")) {
		t.Error("wrong victims evicted")
	}
}

func TestDropLowPriorityTiebreaksOnQuality(t *testing.T) {
	s, _ := New(200, DropLowPriority{})
	s.Add(msg(t, "lowq", 100, message.PriorityLow, 0.2, 1*time.Second))
	s.Add(msg(t, "highq", 100, message.PriorityLow, 0.9, 2*time.Second))
	if err := s.Add(msg(t, "incoming", 100, message.PriorityHigh, 0.5, 3*time.Second)); err != nil {
		t.Fatal(err)
	}
	if s.Has(h("lowq")) || !s.Has(h("highq")) {
		t.Error("same priority: lower quality should be evicted first")
	}
}

func TestMessagesInsertionOrder(t *testing.T) {
	s, _ := New(1000, nil)
	for _, id := range []string{"c", "a", "b"} {
		s.Add(msg(t, id, 10, message.PriorityHigh, 0.5, 0))
	}
	got := s.Messages()
	if len(got) != 3 || got[0].ID != "c" || got[1].ID != "a" || got[2].ID != "b" {
		t.Errorf("order = %v", []ident.MessageID{got[0].ID, got[1].ID, got[2].ID})
	}
}

// TestUsedMatchesContents is the accounting invariant: Used always equals
// the sum of resident message sizes, through any sequence of adds, removes,
// and evictions.
func TestUsedMatchesContents(t *testing.T) {
	rng := sim.NewRNG(13)
	check := func(seed int64) bool {
		local := sim.NewRNG(seed)
		s, _ := New(1000, DropOldest{})
		for op := 0; op < 200; op++ {
			id := ident.MessageID("m" + string(rune('a'+local.Intn(26))))
			if local.Coin(0.7) {
				size := int64(local.Intn(400) + 1)
				m, err := message.New(id, h(string(id)), 1, ident.RoleOperator,
					time.Duration(op)*time.Second, size, message.PriorityHigh, 0.5)
				if err != nil {
					return false
				}
				s.Add(m)
			} else {
				s.Remove(h(string(id)))
			}
			var sum int64
			for _, m := range s.Messages() {
				sum += m.Size
			}
			if sum != s.used || s.used > s.Capacity() {
				return false
			}
		}
		return true
	}
	for i := 0; i < 20; i++ {
		if !check(rng.Int63()) {
			t.Fatal("accounting invariant violated")
		}
	}
}

// TestEvictionAlwaysFrees checks by property that an Add of a fitting
// message never fails, regardless of prior contents.
func TestEvictionAlwaysFrees(t *testing.T) {
	check := func(seed int64) bool {
		local := sim.NewRNG(seed)
		s, _ := New(500, DropLowPriority{})
		for op := 0; op < 100; op++ {
			size := int64(local.Intn(500) + 1)
			prio := message.Priority(local.Intn(3) + 1)
			m, err := message.New(ident.NewMessageID(1, op), message.Handle(op), 1, ident.RoleOperator,
				time.Duration(op)*time.Second, size, prio, 0.5)
			if err != nil {
				return false
			}
			if err := s.Add(m); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMaximaMatchRescan checks the running maxima against a rescan of the
// residents after every Add and Remove. Sizes and qualities come from small
// sets, so maxima are often shared and the last holder of one often
// leaves; small capacities make Add evict under both policies. The last two
// trials read the maxima only now and then, so adds and removes also pile
// up behind a pending rescan.
func TestMaximaMatchRescan(t *testing.T) {
	rng := sim.NewRNG(29)
	sizes := []int64{100, 200, 300}
	qualities := []float64{0.2, 0.5, 0.9, 1}
	for trial, policy := range []Policy{DropOldest{}, DropLowPriority{}, DropOldest{}, DropLowPriority{}} {
		s, _ := New(int64(300+rng.Intn(900)), policy)
		for op := 0; op < 400; op++ {
			hd := message.Handle(rng.Intn(12))
			if rng.Coin(0.6) {
				q := qualities[rng.Intn(len(qualities))]
				if rng.Coin(0.2) {
					q = rng.Range(0.01, 1)
				}
				m, err := message.New(ident.NewMessageID(1, int(hd)), hd, 1, ident.RoleOperator,
					time.Duration(op)*time.Second, sizes[rng.Intn(len(sizes))], message.Priority(rng.Intn(3)+1), q)
				if err != nil {
					t.Fatal(err)
				}
				s.Add(m)
			} else {
				s.Remove(hd)
			}
			if trial >= 2 && !rng.Coin(0.3) {
				continue
			}
			var wantSize int64
			var wantQ float64
			for _, m := range s.Messages() {
				wantSize = max(wantSize, m.Size)
				wantQ = max(wantQ, m.Quality)
			}
			if gotSize, gotQ := s.Maxima(); gotSize != wantSize || gotQ != wantQ {
				t.Fatalf("trial %d op %d (%d resident): Maxima = %d, %v; rescan %d, %v",
					trial, op, s.Len(), gotSize, gotQ, wantSize, wantQ)
			}
		}
		if s.Dropped() == 0 {
			t.Fatalf("trial %d evicted nothing", trial)
		}
	}
}

// refVictims is the former Victims body of both policies: copy the
// residents, stable-sort them by the policy's order, and take the shortest
// prefix that frees need bytes.
func refVictims(resident []*message.Message, need int64, less func(a, b *message.Message) bool) []*message.Message {
	ordered := append([]*message.Message(nil), resident...)
	sort.SliceStable(ordered, func(i, j int) bool { return less(ordered[i], ordered[j]) })
	var freed int64
	for i, m := range ordered {
		if freed >= need {
			return ordered[:i]
		}
		freed += m.Size
	}
	return ordered
}

// TestVictimsMatchStableSort checks both policies' repeated-minimum victim
// selection against the stable-sort reference over randomized buffers.
// Priorities, qualities and creation times come from small sets, so ties
// are common and their order must be insertion order; needs run from one
// byte to more than the whole buffer.
func TestVictimsMatchStableSort(t *testing.T) {
	rng := sim.NewRNG(31)
	policies := []struct {
		policy Policy
		less   func(a, b *message.Message) bool
	}{
		{DropOldest{}, func(a, b *message.Message) bool { return a.CreatedAt < b.CreatedAt }},
		{DropLowPriority{}, func(a, b *message.Message) bool {
			if a.Priority != b.Priority {
				return a.Priority > b.Priority
			}
			if a.Quality != b.Quality {
				return a.Quality < b.Quality
			}
			return a.CreatedAt < b.CreatedAt
		}},
	}
	var ties int
	for trial := 0; trial < 3000; trial++ {
		resident := make([]*message.Message, rng.Intn(14))
		var total int64
		for i := range resident {
			m, err := message.New(ident.NewMessageID(1, i), message.Handle(i), 1, ident.RoleOperator,
				time.Duration(rng.Intn(4))*time.Second, int64(1+rng.Intn(3))*100,
				message.Priority(1+rng.Intn(3)), float64(1+rng.Intn(2))/2)
			if err != nil {
				t.Fatal(err)
			}
			resident[i] = m
			total += m.Size
		}
		need := 1 + rng.Int63()%(total+200)
		for _, p := range policies {
			want := refVictims(resident, need, p.less)
			got := p.policy.Victims(resident, need)
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: %d victims, want %d", trial, p.policy.Name(), len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d %s: victim %d is %s, want %s", trial, p.policy.Name(), i, got[i].ID, want[i].ID)
				}
				if i > 0 && !p.less(want[i-1], want[i]) {
					ties++
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no two consecutive victims tied; the insertion-order tie-break went untested")
	}
}

// TestColumnsTrackResidents checks the handle and tag-ID columns through
// random adds, removes, evictions and tags: each stays parallel to
// Messages, a slot's handle is its copy's, a filled ID slot is its copy's
// KwIDs, Add leaves the new copy's ID slot empty even when the copy has
// KwIDs, and Annotate empties the slot of the copy it tags but not the
// slot of another copy of the message. The revision moves by exactly one
// on every removal, eviction included, and on every retag of a resident
// copy whose slot is filled, and by nothing on an append, a failed
// removal, a slot fill, a retag of a resident copy whose slot is empty or
// a tag on a copy the store does not hold.
func TestColumnsTrackResidents(t *testing.T) {
	rng := sim.NewRNG(37)
	for trial, policy := range []Policy{DropOldest{}, DropLowPriority{}} {
		s, _ := New(1000, policy)
		var appends, retags, emptyRetags int
		for op := 0; op < 2000; op++ {
			hd := message.Handle(rng.Intn(16))
			rev, dropped, n := s.Revision(), s.Dropped(), s.Len()
			var want uint32
			switch r := rng.Intn(10); {
			case r < 5:
				m, err := message.New(ident.NewMessageID(1, int(hd)), hd, 1, ident.RoleOperator,
					time.Duration(op)*time.Second, int64(1+rng.Intn(3))*100, message.Priority(1+rng.Intn(3)), 0.5)
				if err != nil {
					t.Fatal(err)
				}
				m.Annotate("src", 1, 0)
				if rng.Coin(0.5) {
					m.KwIDs = []int32{int32(hd)}
				}
				if s.Add(m) == nil {
					appends++
					if ids := s.TagIDs()[s.Len()-1]; ids != nil {
						t.Fatalf("trial %d op %d: Add filled the new copy's ID slot with %v", trial, op, ids)
					}
				}
				// Each eviction is one removal; the append itself counts
				// nothing.
				want = uint32(s.Dropped() - dropped)
			case r < 7:
				if s.Remove(hd) {
					want = 1
				}
			case r < 9:
				// Routing fills a slot in place.
				if s.Len() > 0 {
					i := rng.Intn(s.Len())
					m := s.Messages()[i]
					if m.KwIDs == nil {
						m.KwIDs = []int32{int32(op)}
					}
					s.TagIDs()[i] = m.KwIDs
				}
			default:
				if s.Len() > 0 {
					i := rng.Intn(s.Len())
					m := s.Messages()[i]
					other := m.CopyFor(2)
					s.Annotate(other, "elsewhere", 2, 0) // not resident
					if s.Revision() != rev {
						t.Fatalf("trial %d op %d: tagging a copy the store does not hold moved the revision", trial, op)
					}
					filled := s.TagIDs()[i] != nil
					tagged := s.Annotate(m, string(rune('a'+op%26)), 1, 0)
					if tagged && s.TagIDs()[i] != nil {
						t.Fatalf("trial %d op %d: tagging %s left its ID slot filled", trial, op, m.ID)
					}
					switch {
					case tagged && filled:
						want = 1
						retags++
					case tagged:
						emptyRetags++
					}
				}
			}
			if got := s.Revision() - rev; got != want {
				t.Fatalf("trial %d op %d: revision moved by %d over %d→%d copies and %d evictions, want %d",
					trial, op, got, n, s.Len(), s.Dropped()-dropped, want)
			}
			msgs, handles, ids := s.Messages(), s.Handles(), s.TagIDs()
			if len(handles) != len(msgs) || len(ids) != len(msgs) {
				t.Fatalf("trial %d op %d: %d copies, %d handles, %d ID slots", trial, op, len(msgs), len(handles), len(ids))
			}
			for i, m := range msgs {
				if handles[i] != m.Handle {
					t.Fatalf("trial %d op %d slot %d: handle %d, copy's %d", trial, op, i, handles[i], m.Handle)
				}
				if ids[i] != nil && (m.KwIDs == nil || &ids[i][0] != &m.KwIDs[0]) {
					t.Fatalf("trial %d op %d slot %d: IDs %v, copy's KwIDs %v", trial, op, i, ids[i], m.KwIDs)
				}
			}
			// The vacated tail slots hold nothing.
			for _, m := range msgs[len(msgs):cap(msgs)] {
				if m != nil {
					t.Fatalf("trial %d op %d: a vacated slot pins %s", trial, op, m.ID)
				}
			}
			for _, slot := range ids[len(ids):cap(ids)] {
				if slot != nil {
					t.Fatalf("trial %d op %d: a vacated ID slot pins %v", trial, op, slot)
				}
			}
		}
		if s.Dropped() == 0 || appends == 0 || retags == 0 || emptyRetags == 0 {
			t.Fatalf("trial %d: %d evictions, %d appends, %d retags of filled slots, %d of empty ones: each must occur",
				trial, s.Dropped(), appends, retags, emptyRetags)
		}
	}
}

// TestStoreFitsItsSizeClass pins the Store at 160 bytes, the size class it
// filled before the routing columns: every node owns one, so a field that
// pushed it into the next class would cost crowd-scale runs more heap than
// the columns save.
func TestStoreFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Store{}); size > 160 {
		t.Fatalf("Store is %d bytes, past the 160-byte size class", size)
	}
}
