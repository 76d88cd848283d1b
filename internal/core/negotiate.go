package core

import (
	"dtnsim/internal/incentive"
	"dtnsim/internal/message"
	"dtnsim/internal/radio"
	"dtnsim/internal/reputation"
	"dtnsim/internal/routing"
)

// direction is the negotiation state of one routing call, u→v: the memo
// the router walked, if it walked the contact direction's, and what the
// call reads at most once. v's judgement of u does not change while the
// call negotiates, so ShouldAvoid and Rating are read on the first offer
// that needs them, not per offer, and not at all on the many calls that
// make no offer.
type direction struct {
	u, v *Node
	memo *routing.Memo

	repRead bool // avoid and rating are read
	avoid   bool
	rating  float64
	stamped bool // the memo's floor stamp is checked
}

// entry returns the index of the memo entry offer o was made from, or −1,
// and the offered message's handle. An entry is trusted only when the
// walked memo's slot still holds o's copy, so an offer a router wrapper
// built from some other walk names none. The handle comes from u's
// handle column, so a check that refuses o never loads its copy.
func (d *direction) entry(o routing.Offer) (int, message.Handle) {
	if k, ok := o.MemoEntry(); ok && d.memo != nil && k < d.memo.Len() {
		if s := d.memo.Slot(k); d.u.buf.Messages()[s] == o.Msg {
			return k, d.u.buf.Handles()[s]
		}
	}
	return -1, o.Msg.Handle
}

// readReputation reads v's opinion of u once per call. Without a
// reputation model the rating stays 0, which prices no award.
func (d *direction) readReputation(e *Engine) {
	if d.repRead {
		return
	}
	d.repRead = true
	if e.cfg.reputationActive() {
		d.avoid = d.v.rep.ShouldAvoid(d.u.id)
		d.rating = d.v.rep.Rating(d.u.id)
	}
}

// floor returns the award floor cached for memo entry k, and whether there
// is one. The first call per direction stamps the memo with v's rating of
// u and u's buffer maxima, which forgets every floor priced under other
// values (routing.Memo.StampFloors).
func (d *direction) floor(k int) (float64, bool) {
	if k < 0 {
		return 0, false
	}
	if !d.stamped {
		d.stamped = true
		maxSize, maxQuality := d.u.buf.Maxima()
		d.memo.StampFloors(d.rating, maxSize, maxQuality)
	}
	return d.memo.Floor(k)
}

// negotiate applies the incentive mechanism's pre-transfer agreement for
// offer o from u to v (Paper I §3.3's "overall data flow between two
// connected devices"), given its memo entry k (or −1) and its handle h,
// and returns the transfer v accepted:
//
//   - destination handovers: v must be able to pay the expected award
//     (zero-token rule: "a device with no incentive to offer cannot act as a
//     destination"), the pair must not already be served (first-deliverer
//     rule), and v may refuse senders its DRM has barred;
//   - relay handovers: when v's mean tag weight clears the relay threshold,
//     v agrees to prepay a fraction of the promise ("B offers a percentage
//     of incentive token values to A"); otherwise the message travels free,
//     carrying the promise.
//
// Under SchemeChitChat all gating is skipped — routing alone decides.
//
// A destination offer whose memo entry caches an award floor v cannot pay
// is refused from the cache: every check before the floor reads only the
// handle and once-per-call state, so the copy is neither loaded nor priced
// again. Otherwise the floor is priced and cached.
func (e *Engine) negotiate(d *direction, o routing.Offer, k int, h message.Handle) (*transfer, bool) {
	u, v := d.u, d.v
	if o.Role == routing.RoleDestination && e.wasDelivered(h, v.id) {
		// Another copy already served this destination; the first
		// deliverer collected, nobody else will ("a relay ... only
		// receives the promised incentive ... if it is a first deliverer").
		return nil, false
	}
	var promise, prepay float64
	if e.cfg.incentiveActive() {
		d.readReputation(e)
		if d.avoid {
			e.ctrRefusedRep.Inc()
			return nil, false
		}
		switch o.Role {
		case routing.RoleDestination:
			// Zero-token rule: an empty wallet cannot act as a destination,
			// even for an award of zero. Past it, the floor settles almost
			// every no-token refusal without the weight sums the full
			// promise needs; it never exceeds the award, so it refuses only
			// offers the award would refuse.
			if v.wallet.Balance() <= 0 {
				return e.refuseNoTokens()
			}
			floor, cached := d.floor(k)
			if cached && !v.wallet.CanPay(floor) {
				if e.floorAudit != nil {
					e.floorAudit(u, v, o.Msg, floor)
				}
				return e.refuseNoTokens()
			}
			m := o.Msg
			factor := e.awardFactor(d.rating, m)
			if !cached {
				floor = e.awardFloor(u, v, m, factor)
				if k >= 0 {
					d.memo.SetFloor(k, floor)
				}
				if !v.wallet.CanPay(floor) {
					return e.refuseNoTokens()
				}
			}
			promise = e.promiseFor(u, v, m)
			if !v.wallet.CanPay(e.award(factor, promise, m)) {
				return e.refuseNoTokens()
			}
		case routing.RoleRelay:
			m := o.Msg
			promise = e.promiseFor(u, v, m)
			meanW := v.table.MeanWeightIDs(routing.KeywordIDs(m, e.interner))
			p, due := e.calc.RelayPrepay(meanW, promise)
			if due {
				if !v.wallet.CanPay(p) {
					// "If v has that many tokens left, they are awarded to u
					// and the message is received" — without them it is not.
					return e.refuseNoTokens()
				}
				prepay = p
			}
		}
	}
	t := e.acquireTransfer()
	t.from, t.to = u, v
	t.msg, t.role = o.Msg, o.Role
	t.bytesLeft = float64(o.Msg.Size)
	t.promise, t.prepay = promise, prepay
	return t, true
}

// refuseNoTokens counts a no-token refusal.
func (e *Engine) refuseNoTokens() (*transfer, bool) {
	e.ctrRefusedTokens.Inc()
	return nil, false
}

// promiseFor computes the incentive attached to u handing m to v:
// I = min(I_s + I_h, I_m) with the software factors of Algorithm 3 and the
// Friis-based hardware factor.
func (e *Engine) promiseFor(u, v *Node, m *message.Message) float64 {
	ids := routing.KeywordIDs(m, e.interner)
	f := e.softwareFactors(u, v, m)
	f.SumWeights = v.table.SumWeightsIDs(ids)
	// w_m: the best interest-weight sum for this message among all devices
	// currently connected to u.
	f.MaxSumWeights = f.SumWeights
	for _, peer := range u.peerTables {
		if s := peer.SumWeightsIDs(ids); s > f.MaxSumWeights {
			f.MaxSumWeights = s
		}
	}
	is, err := e.calc.Software(f)
	if err != nil {
		// Roles and priorities are validated at construction; an error
		// here is a bug, but a zero promise degrades gracefully.
		is = 0
	}
	return e.calc.Total(is, e.hardwareIncentive(u, v, m))
}

// awardFloor is a lower bound on what v pays for m delivered by u, priced
// from O(1) inputs: the promise's software term without P_v
// (incentive.Calculator.SoftwareFloor), and I_h only for a source sender,
// because a relay sender's I_h needs the pair's receive power. Every
// dropped term is non-negative, and Total and the award are monotone, so
// the floor never exceeds award(factor, promiseFor(u, v, m), m) (DESIGN.md
// "Exact early exits in the contact round").
func (e *Engine) awardFloor(u, v *Node, m *message.Message, factor float64) float64 {
	is, _ := e.calc.SoftwareFloor(e.softwareFactors(u, v, m))
	var ih float64
	if m.Source == u.id {
		ih = e.hardwareIncentive(u, v, m)
	}
	return e.award(factor, e.calc.Total(is, ih), m)
}

// softwareFactors fills Algorithm 3's inputs for u handing m to v, all but
// the weight sums.
func (e *Engine) softwareFactors(u, v *Node, m *message.Message) incentive.SoftwareFactors {
	maxSize, maxQ := u.maxBufferStats(m.Size, m.Quality)
	return incentive.SoftwareFactors{
		Size:         m.Size,
		MaxSize:      maxSize,
		Quality:      m.Quality,
		MaxQuality:   maxQ,
		SenderRole:   u.role,
		ReceiverRole: v.role,
		Priority:     m.Priority,
	}
}

// hardwareIncentive is I_h for u sending m to v: transmit energy for the
// source, transmit and receive energy for a relay.
func (e *Engine) hardwareIncentive(u, v *Node, m *message.Message) float64 {
	transferTime := radio.TransferTime(m.Size)
	if m.Source == u.id {
		return e.calc.HardwareSource(radio.TxPower, transferTime)
	}
	return e.calc.HardwareRelay(radio.TxPower, e.receivePower(u, v), transferTime)
}

// awardFactor is the reputation multiplier a destination applies to an
// award for m delivered by a sender it rates at rating, or 1 without a
// reputation model.
func (e *Engine) awardFactor(rating float64, m *message.Message) float64 {
	if !e.cfg.reputationActive() {
		return 1
	}
	return reputation.AwardFactor(e.cfg.Reputation.Alpha, rating, m.PathRatings)
}

// award prices a delivery of m that carries promise: I_v = factor·(I + I_t),
// where I_t = min(Σ z·I_m, I_c) pays for the enrichment tags the
// destination would judge relevant.
func (e *Engine) award(factor, promise float64, m *message.Message) float64 {
	return factor * (promise + e.calc.TagReward(m.RelevantTags()))
}

// receivePower evaluates the Friis receive power at the pair's current
// distance; trace replays have no meaningful geometry, so they use the
// nominal half-range distance.
func (e *Engine) receivePower(u, v *Node) float64 {
	if e.traceCursor != nil {
		return radio.ReceivePower(radio.Range / 2)
	}
	pu, okU := e.grid.Position(u.id)
	pv, okV := e.grid.Position(v.id)
	if !okU || !okV {
		return radio.ReceivePower(radio.Range)
	}
	return radio.ReceivePower(pu.Dist(pv))
}
