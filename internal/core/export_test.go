package core

import "dtnsim/internal/message"

// AwardBounds returns, for u delivering m to v, the award floor negotiate
// refuses on and the full award it stands in for.
func (e *Engine) AwardBounds(u, v *Node, m *message.Message) (floor, full float64) {
	factor := e.awardFactor(u, v, m)
	return e.awardFloor(u, v, m, factor), e.award(factor, e.promiseFor(u, v, m), m)
}
