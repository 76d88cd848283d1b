package core

import (
	"time"

	"dtnsim/internal/incentive"
	"dtnsim/internal/message"
	"dtnsim/internal/routing"
)

// negotiate applies the incentive mechanism's pre-transfer agreement for one
// offer from u to v (Paper I §3.3's "overall data flow between two connected
// devices"):
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
func (e *Engine) negotiate(u, v *Node, offer routing.Offer, now time.Duration) (*transfer, bool) {
	m := offer.Msg
	if offer.Role == routing.RoleDestination && e.collector.WasDelivered(m.Handle, v.id) {
		// Another copy already served this destination; the first
		// deliverer collected, nobody else will ("a relay ... only
		// receives the promised incentive ... if it is a first deliverer").
		return nil, false
	}
	t := e.acquireTransfer()
	t.from, t.to = u, v
	t.msg, t.role = m, offer.Role
	t.bytesLeft = float64(m.Size)
	if !e.cfg.incentiveActive() {
		return t, true
	}
	if e.cfg.reputationActive() && v.rep.ShouldAvoid(u.id) {
		e.collector.RefusedReputation()
		e.releaseTransfer(t)
		return nil, false
	}
	switch offer.Role {
	case routing.RoleDestination:
		// Zero-token rule: an empty wallet cannot act as a destination,
		// even for an award of zero. Past it, the floor settles almost
		// every no-token refusal without the weight sums the full promise
		// needs; it never exceeds the award, so it refuses only offers the
		// award would refuse.
		if v.wallet.Balance() <= 0 {
			return e.refuseNoTokens(t)
		}
		factor := e.awardFactor(u, v, m)
		if !v.wallet.CanPay(e.awardFloor(u, v, m, factor)) {
			return e.refuseNoTokens(t)
		}
		t.promise = e.promiseFor(u, v, m)
		if !v.wallet.CanPay(e.award(factor, t.promise, m)) {
			return e.refuseNoTokens(t)
		}
	case routing.RoleRelay:
		t.promise = e.promiseFor(u, v, m)
		meanW := v.table.MeanWeightIDs(routing.KeywordIDs(m, e.interner))
		prepay, due := e.calc.RelayPrepay(meanW, t.promise)
		if due {
			if !v.wallet.CanPay(prepay) {
				// "If v has that many tokens left, they are awarded to u
				// and the message is received" — without them it is not.
				return e.refuseNoTokens(t)
			}
			t.prepay = prepay
		}
	}
	return t, true
}

// refuseNoTokens drops the negotiated transfer t as a no-token refusal.
func (e *Engine) refuseNoTokens(t *transfer) (*transfer, bool) {
	e.collector.RefusedNoTokens()
	e.releaseTransfer(t)
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
	for _, c := range e.peersOf[u.id] {
		peer := c.other(u)
		if s := peer.table.SumWeightsIDs(ids); s > f.MaxSumWeights {
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
	transferTime := e.cfg.Radio.TransferTime(m.Size)
	if m.Source == u.id {
		return e.calc.HardwareSource(e.cfg.Radio.TxPower, transferTime)
	}
	return e.calc.HardwareRelay(e.cfg.Radio.TxPower, e.receivePower(u, v), transferTime)
}

// awardFactor is the reputation multiplier v applies to an award for m
// delivered by u, or 1 without a reputation model.
func (e *Engine) awardFactor(u, v *Node, m *message.Message) float64 {
	if !e.cfg.reputationActive() {
		return 1
	}
	return v.rep.AwardFactor(u.id, m.PathRatings)
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
		return e.cfg.Radio.ReceivePower(e.cfg.Radio.Range / 2)
	}
	pu, okU := e.grid.Position(u.id)
	pv, okV := e.grid.Position(v.id)
	if !okU || !okV {
		return e.cfg.Radio.ReceivePower(e.cfg.Radio.Range)
	}
	return e.cfg.Radio.ReceivePower(pu.Dist(pv))
}
