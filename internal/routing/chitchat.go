package routing

// ChitChat implements the paper's data-centric routing substrate
// (Paper I §2.2–2.4, after McGeehan et al., ICDCS 2016): messages flow
// toward devices whose transient social relationships show stronger
// interest in the message's keywords.
//
// For each buffered message, the peer is classified as destination (direct
// interest), relay (strictly higher interest-weight sum), or neither; only
// the first two produce offers. The RTSR weight exchange itself runs in the
// engine before routing, so SelectOffers sees already-updated tables.
type ChitChat struct{}

var _ Router = ChitChat{}

// NewChitChat returns the router.
func NewChitChat() ChitChat { return ChitChat{} }

// Name implements Router.
func (ChitChat) Name() string { return "chitchat" }

// SelectOffers implements Router.
func (ChitChat) SelectOffers(u, v NodeView) []Offer {
	var offers []Offer
	ut, vt := u.Interests(), v.Interests()
	w := newWalk(u, v)
	for ids, ok := w.next(); ok; ids, ok = w.next() {
		if role := classify(ids, ut, vt); role != RoleNone {
			offers = append(offers, Offer{Msg: w.msg(), Role: role})
		}
	}
	return offers
}
