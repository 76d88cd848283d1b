package core

import (
	"errors"
	"time"

	"dtnsim/internal/buffer"
	"dtnsim/internal/enrich"
	"dtnsim/internal/ident"
	"dtnsim/internal/message"
	"dtnsim/internal/radio"
	"dtnsim/internal/report"
	"dtnsim/internal/routing"
)

// progressTransfer advances a contact's link by one step: pops the next
// queued transfer when the link is idle and moves bandwidth·step bytes of
// the active one. The link is half-duplex — one transfer at a time, both
// directions sharing the queue in negotiation order.
func (e *Engine) progressTransfer(c *contact, now time.Duration) {
	step := e.runner.Clock().Step()
	if c.active == nil {
		c.active = e.popValid(c)
		if c.active == nil {
			return
		}
	}
	t := c.active
	t.elapsed += step
	t.bytesLeft -= radio.Bandwidth * step.Seconds()
	if t.bytesLeft > 0 {
		return
	}
	c.active = nil
	e.completeTransfer(c, t, now)
	e.releaseTransfer(t)
}

// popValid dequeues the first transfer that is still worth executing:
// conditions can change while a transfer waits (the recipient may have
// received the message over another contact, or the destination pair may
// have been served elsewhere).
func (e *Engine) popValid(c *contact) *transfer {
	for {
		t := c.pop()
		if t == nil {
			return nil
		}
		if !e.stillValid(t) {
			e.releaseTransfer(t)
			continue
		}
		return t
	}
}

// stillValid reports whether a queued or finished transfer may still hand
// its message over; it gates both the pop and the completion. Besides the
// residency and first-delivery checks, a spray relay needs a sender that
// still holds more than one copy: the offer was made while it did, but
// another relay may since have left it one, and splitting one copy would
// give the receiver none.
func (e *Engine) stillValid(t *transfer) bool {
	h := t.msg.Handle
	if !t.from.buf.Has(h) || t.to.buf.Has(h) {
		return false
	}
	if t.role == routing.RoleDestination {
		return !e.wasDelivered(h, t.to.id)
	}
	return !e.spray || t.msg.CopiesLeft > 1
}

// completeTransfer settles one finished handover: energy accounting, token
// settlement (award for deliveries, prepay for threshold relays), message
// cloning with path-rating attachment, spray splitting, buffering,
// enrichment, and — for deliveries — the destination's DRM judgement.
func (e *Engine) completeTransfer(c *contact, t *transfer, now time.Duration) {
	u, v, m := t.from, t.to, t.msg
	if !e.stillValid(t) {
		return
	}

	// Battery accounting (both parties burned radio time regardless of
	// what the settlement decides).
	rx := e.receivePower(u, v)
	u.energy.SpendTx(radio.TxPower, t.elapsed)
	v.energy.SpendRx(rx, t.elapsed)

	incentiveOn := e.cfg.incentiveActive()
	if t.role == routing.RoleDestination {
		e.settleDelivery(t, now)
		return
	}

	// Relay handover. Threshold prepay first: if the receiver can no
	// longer cover it, the agreement fails and the message is not handed
	// over.
	if incentiveOn && t.prepay > 0 {
		if err := e.ledger.Pay(v.wallet, u.wallet, t.prepay); err != nil {
			e.ctrRefusedTokens.Inc()
			return
		}
		e.record(report.Event{At: now, Kind: report.Payment, A: v.id, B: u.id, Msg: m.ID, Tokens: t.prepay})
	}

	clone := m.CopyFor(v.id)
	clone.PromisedTokens = t.promise
	if e.cfg.reputationActive() {
		attachPathRatings(u, clone)
	}
	if e.spray {
		keep, give := routing.SplitCopies(m.CopiesLeft)
		m.CopiesLeft, clone.CopiesLeft = keep, give
	}
	if err := v.buf.Add(clone); err != nil {
		// Duplicate (arrived via another contact since validation) or a
		// message larger than the whole buffer: the handover evaporates.
		return
	}
	e.ctrTransfers.Inc()
	e.ctrRelay.Inc()
	e.record(report.Event{At: now, Kind: report.Relayed, A: u.id, B: v.id, Msg: m.ID})

	// Content enrichment: the new custodian may add supplementary
	// keywords to the received copy ("nodes ... have option of adding
	// more text annotations to the received messages in message buffer").
	if e.cfg.enrichmentActive() {
		e.enrich(v, clone, now)
	}
}

// settleDelivery executes the destination-side protocol: compute the award
// I_v = factor·(I + I_t), enforce the zero-token rule, accept the message,
// and run the DRM judgement over the source and every enriching relay.
func (e *Engine) settleDelivery(t *transfer, now time.Duration) {
	u, v, m := t.from, t.to, t.msg
	if m.Size > v.buf.Capacity() {
		return
	}
	clone := m.CopyFor(v.id)
	clone.PromisedTokens = t.promise

	if e.cfg.incentiveActive() {
		award := e.award(e.awardFactor(u, v, m), t.promise, m)
		// Zero-token rule: a destination that cannot pay, or whose wallet
		// is empty even for an award of zero, does not receive ("unless
		// the node participates in relaying and gains more tokens ... the
		// node will not be able to receive the interesting content").
		if v.wallet.Balance() <= 0 || e.ledger.Pay(v.wallet, u.wallet, award) != nil {
			e.ctrRefusedTokens.Inc()
			return
		}
		if award > 0 {
			e.record(report.Event{At: now, Kind: report.Payment, A: v.id, B: u.id, Msg: m.ID, Tokens: award})
		}
	}

	if err := v.buf.Add(clone); err != nil {
		// Only reachable if the message arrived over another contact in
		// the same tick; the payment (if any) stands — the deliverer did
		// deliver, the destination simply holds the earlier copy.
		if !errors.Is(err, buffer.ErrDuplicate) {
			return
		}
	}
	e.ctrTransfers.Inc()
	e.markDelivered(clone, v.id, now)
	e.record(report.Event{At: now, Kind: report.Delivered, A: u.id, B: v.id, Msg: m.ID})

	if e.cfg.reputationActive() {
		e.judgeDelivered(v, clone)
	}

	// Destinations may keep relaying the message to other destinations
	// ("the devices can share a message with multiple destinations"), and
	// like any custodian they may enrich the buffered copy before passing
	// it on.
	if e.cfg.enrichmentActive() {
		e.enrich(v, clone, now)
	}
}

// enrich lets the new custodian add supplementary keywords to its copy.
func (e *Engine) enrich(v *Node, clone *message.Message, now time.Duration) {
	for _, kw := range v.tagger.ProposeTags(clone, v.rng) {
		e.addTag(v, clone, kw, now)
	}
}

// addTag annotates v's copy m with kw and, when the tag is new, counts it
// and records a TagAdded event. Relay enrichment and Device.Enrich both add
// tags here, so the counts and the trace agree. The
// tag goes through v's buffer, which keeps the copy's tag-ID column in step
// (buffer.Store.Annotate): this is the only path that tags a buffered copy.
func (e *Engine) addTag(v *Node, m *message.Message, kw string, now time.Duration) {
	if !v.buf.Annotate(m, kw, v.id, now) {
		return
	}
	e.ctrTags.Inc()
	relevant := m.Relevant(kw)
	if relevant {
		e.ctrTagsRelevant.Inc()
	}
	e.record(report.Event{
		At: now, Kind: report.TagAdded, A: v.id, Msg: m.ID,
		Keyword: kw, Relevant: relevant,
	})
}

// judgeDelivered runs the destination user's post-reception review: rate
// the source for tag relevance and content quality, and each enriching
// relay for its added tags (Paper I §3.3, "Rating of a message").
func (e *Engine) judgeDelivered(v *Node, m *message.Message) {
	if m.Source != v.id {
		v.rep.RateSourceMessage(m.Source, enrich.JudgeSource(m, v.rng))
	}
	for _, enricher := range m.Enrichers() {
		if enricher == v.id {
			continue
		}
		inputs, _ := enrich.JudgeEnricher(m, enricher, v.rng)
		v.rep.RateRelayMessage(enricher, inputs)
	}
}

// attachPathRatings lets the forwarder send along its current opinion of
// every custodian and enricher in the message's history ("they share this
// rating with the next hop in the path of message traversal").
func attachPathRatings(u *Node, clone *message.Message) {
	seen := make(map[ident.NodeID]bool, len(clone.Path))
	rate := func(subject ident.NodeID) {
		if subject == u.id || seen[subject] {
			return
		}
		seen[subject] = true
		clone.AttachRating(message.PathRating{
			Rater:   u.id,
			Subject: subject,
			Rating:  u.rep.Rating(subject),
		})
	}
	// Path excludes the new custodian (last element is the receiver).
	for _, hop := range clone.Path[:len(clone.Path)-1] {
		rate(hop)
	}
	for _, enricher := range clone.Enrichers() {
		rate(enricher)
	}
}
