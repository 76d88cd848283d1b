package core

import (
	"time"

	"dtnsim/internal/incentive"
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
	promise := e.promiseFor(u, v, offer)
	t.promise = promise
	switch offer.Role {
	case routing.RoleDestination:
		award := e.estimateAward(u, v, t)
		if !v.wallet.CanPay(award) {
			e.collector.RefusedNoTokens()
			e.releaseTransfer(t)
			return nil, false
		}
	case routing.RoleRelay:
		meanW := v.table.MeanWeightIDs(routing.KeywordIDs(m, e.interner))
		prepay, due := e.calc.RelayPrepay(meanW, promise)
		if due {
			if !v.wallet.CanPay(prepay) {
				// "If v has that many tokens left, they are awarded to u
				// and the message is received" — without them it is not.
				e.collector.RefusedNoTokens()
				e.releaseTransfer(t)
				return nil, false
			}
			t.prepay = prepay
		}
	}
	return t, true
}

// promiseFor computes the incentive attached to this handover:
// I = min(I_s + I_h, I_m) with the software factors of Algorithm 3 and the
// Friis-based hardware factor.
func (e *Engine) promiseFor(u, v *Node, offer routing.Offer) float64 {
	m := offer.Msg
	ids := routing.KeywordIDs(m, e.interner)
	sumW := v.table.SumWeightsIDs(ids)
	// w_m: the best interest-weight sum for this message among all devices
	// currently connected to u.
	maxSum := sumW
	for _, c := range e.peersOf[u.id] {
		peer := c.other(u)
		if s := peer.table.SumWeightsIDs(ids); s > maxSum {
			maxSum = s
		}
	}
	maxSize, maxQ := u.maxBufferStats(m.Size, m.Quality)
	is, err := e.calc.Software(incentive.SoftwareFactors{
		SumWeights:    sumW,
		MaxSumWeights: maxSum,
		Size:          m.Size,
		MaxSize:       maxSize,
		Quality:       m.Quality,
		MaxQuality:    maxQ,
		SenderRole:    u.role,
		ReceiverRole:  v.role,
		Priority:      m.Priority,
	})
	if err != nil {
		// Roles and priorities are validated at construction; an error
		// here is a bug, but a zero promise degrades gracefully.
		is = 0
	}
	transferTime := e.cfg.Radio.TransferTime(m.Size)
	var ih float64
	if m.Source == u.id {
		ih = e.calc.HardwareSource(e.cfg.Radio.TxPower, transferTime)
	} else {
		ih = e.calc.HardwareRelay(e.cfg.Radio.TxPower, e.receivePower(u, v), transferTime)
	}
	return e.calc.Total(is, ih)
}

// estimateAward predicts what the destination will pay at completion so the
// zero-token rule can gate the transfer before bytes move.
func (e *Engine) estimateAward(u, v *Node, t *transfer) float64 {
	total := t.promise + e.pendingTagReward(t)
	if !e.cfg.reputationActive() {
		return total
	}
	return v.rep.AwardFactor(u.id, t.msg.RatingValues()) * total
}

// pendingTagReward prices the enrichment tags currently on the message that
// the destination would judge relevant, I_t = min(Σ z·I_m, I_c).
func (e *Engine) pendingTagReward(t *transfer) float64 {
	relevant := 0
	for _, a := range t.msg.Annotations {
		if a.Hop > 0 && t.msg.Relevant(a.Keyword) {
			relevant++
		}
	}
	return e.calc.TagReward(relevant)
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
