package buffer

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

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
	if !s.Has(h("a")) || s.Get("a") != m || s.Len() != 1 || s.Used() != 100 || s.Free() != 900 {
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
	if s.Used() != 0 || s.Len() != 0 {
		t.Error("store not empty after Remove")
	}
}

// TestHeldOutlivesResidency pins the two bits per handle: Add sets both
// resident and ever-held, and every way out of the buffer — Remove,
// eviction, expiry — clears only residency.
func TestHeldOutlivesResidency(t *testing.T) {
	s, _ := New(200, DropOldest{})
	if s.Held(h("removed")) {
		t.Fatal("empty store reports a held message")
	}
	s.Add(msg(t, "removed", 100, message.PriorityHigh, 0.5, 1*time.Second))
	evicted := msg(t, "evicted", 100, message.PriorityHigh, 0.5, 2*time.Second)
	s.Add(evicted)
	expired := msg(t, "expired", 150, message.PriorityHigh, 0.5, 3*time.Second)
	expired.TTL = time.Minute
	for _, id := range []string{"removed", "evicted"} {
		if !s.Has(h(id)) || !s.Held(h(id)) {
			t.Fatalf("%s: Has %v Held %v after Add, want both", id, s.Has(h(id)), s.Held(h(id)))
		}
	}
	s.Remove(h("removed"))
	if err := s.Add(expired); err != nil { // evicts "evicted"
		t.Fatal(err)
	}
	s.ExpireAt(time.Hour)
	for _, id := range []string{"removed", "evicted", "expired"} {
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

func TestExpireAt(t *testing.T) {
	s, _ := New(1000, nil)
	m1 := msg(t, "short", 10, message.PriorityHigh, 0.5, 0)
	m1.TTL = time.Minute
	m2 := msg(t, "long", 10, message.PriorityHigh, 0.5, 0)
	m2.TTL = time.Hour
	m3 := msg(t, "forever", 10, message.PriorityHigh, 0.5, 0)
	s.Add(m1)
	s.Add(m2)
	s.Add(m3)
	if n := s.ExpireAt(30 * time.Minute); n != 1 {
		t.Errorf("expired %d, want 1", n)
	}
	if s.Has(h("short")) || !s.Has(h("long")) || !s.Has(h("forever")) {
		t.Error("wrong messages expired")
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
			if sum != s.Used() || s.Used() > s.Capacity() {
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
