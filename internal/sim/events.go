package sim

import (
	"time"
)

// Event is a callback scheduled to fire at a specific virtual time. The
// fire time passed to the callback is the event's scheduled time, which may
// be earlier than Clock.Now() when events land between ticks; callbacks that
// care should read the clock.
type Event func(at time.Duration)

// Handle identifies one scheduled event and supports cancellation and
// rescheduling. Handles use lazy invalidation: Cancel and Reschedule bump a
// generation counter and stale heap entries are discarded when they surface,
// so both operations are O(1) (plus one amortised heap push for Reschedule).
type Handle struct {
	q    *EventQueue
	fire Event
	gen  uint64 // generation of the pending heap entry; bumped to invalidate
}

// Cancel withdraws a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (h *Handle) Cancel() { h.gen++ }

// Reschedule moves the event to a new fire time, reviving it if it has
// already fired or been cancelled. The event keeps its callback but counts
// as freshly scheduled for same-instant FIFO ordering.
func (h *Handle) Reschedule(at time.Duration) {
	h.gen++
	h.q.push(h, at)
}

type scheduledEvent struct {
	at  time.Duration
	seq uint64 // tie-break: FIFO among events at the same instant
	gen uint64 // must match the handle's generation or the entry is stale
	h   *Handle
}

// eventHeap is a hand-rolled binary min-heap. container/heap would box every
// entry into an interface on each Push/Pop — one allocation per schedule,
// reschedule, and fire — which showed up as GC pressure at scale. Entries
// have unique (at, seq) keys, so pop order is fully determined by less
// regardless of sift implementation.
type eventHeap []scheduledEvent

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// EventQueue is a time-ordered queue of scheduled callbacks. Events at equal
// times fire in scheduling order (rescheduling counts as a fresh schedule),
// which keeps runs deterministic.
type EventQueue struct {
	h   eventHeap
	seq uint64
}

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue {
	return &EventQueue{}
}

// ScheduleAt enqueues fire to run at the absolute virtual time at and
// returns a handle for cancellation or rescheduling.
func (q *EventQueue) ScheduleAt(at time.Duration, fire Event) *Handle {
	h := &Handle{q: q, fire: fire}
	q.push(h, at)
	return h
}

// push appends a heap entry firing h at at under its current generation.
func (q *EventQueue) push(h *Handle, at time.Duration) {
	q.seq++
	q.h = append(q.h, scheduledEvent{at: at, seq: q.seq, gen: h.gen, h: h})
	q.h.up(len(q.h) - 1)
}

// pop removes and returns the earliest heap entry. The vacated array slot is
// zeroed so the entry's handle can be collected.
func (q *EventQueue) pop() scheduledEvent {
	h := q.h
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	ev := h[n]
	h[n] = scheduledEvent{}
	q.h = h[:n]
	if n > 0 {
		q.h.down(0)
	}
	return ev
}

// RunDue fires every event scheduled at or before now, in time order. Events
// may schedule further events; newly scheduled events that are also due are
// fired in the same call. It returns the number of events fired.
func (q *EventQueue) RunDue(now time.Duration) int {
	fired := 0
	for len(q.h) > 0 && q.h[0].at <= now {
		ev := q.pop()
		if ev.gen != ev.h.gen {
			continue // cancelled or rescheduled since this entry was pushed
		}
		ev.h.fire(ev.at)
		fired++
	}
	return fired
}
