package core

import "dtnsim/internal/message"

// AwardBounds returns, for u delivering m to v, the award floor negotiate
// refuses on and the full award it stands in for.
func (e *Engine) AwardBounds(u, v *Node, m *message.Message) (floor, full float64) {
	factor := e.awardFactor(v.rep.Rating(u.id), m)
	return e.awardFloor(u, v, m, factor), e.award(factor, e.promiseFor(u, v, m), m)
}

// OutcomeCounter pairs an outcome counter's registry name with the Result
// field it feeds.
type OutcomeCounter struct {
	Name  string
	Field func(Result) int
}

// OutcomeCounters lists every outcome counter that has a Result field.
func OutcomeCounters() []OutcomeCounter {
	out := []OutcomeCounter{
		{"messages_created", func(r Result) int { return r.Created }},
		{"messages_delivered", func(r Result) int { return r.Delivered }},
		{"transfers", func(r Result) int { return r.Transfers }},
		{"relay_transfers", func(r Result) int { return r.RelayTransfers }},
		{"aborted_transfers", func(r Result) int { return r.AbortedTransfers }},
		{"refused_no_tokens", func(r Result) int { return r.RefusedNoTokens }},
		{"refused_reputation", func(r Result) int { return r.RefusedReputation }},
		{"refused_radio_off", func(r Result) int { return r.RefusedRadioOff }},
		{"tags_added", func(r Result) int { return r.TagsAdded }},
		{"tags_relevant", func(r Result) int { return r.RelevantTags }},
	}
	for _, p := range priorities {
		out = append(out,
			OutcomeCounter{"created_" + p.String(), func(r Result) int { return r.CreatedByPriority[p] }},
			OutcomeCounter{"delivered_" + p.String(), func(r Result) int { return r.DeliveredByPriority[p] }})
	}
	return out
}

// AuditCachedRefusals makes negotiate call fn with each destination offer
// it refuses from an award floor a routing memo cached, and that floor.
func (e *Engine) AuditCachedRefusals(fn func(u, v *Node, m *message.Message, floor float64)) {
	e.floorAudit = fn
}
