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
//
// The destination verdicts come from the walk's memo (see Memo). The relay
// test runs every round, but when the sender holds every tag of every
// copy that is not a destination at the ceiling, one set test settles them
// all: interest.Table.AtCeilingSet over the union of their tags implies
// AtCeilingIDs for each copy, so none is a relay (see relayRole).
type ChitChat struct{}

var _ Router = ChitChat{}

// NewChitChat returns the router.
func NewChitChat() ChitChat { return ChitChat{} }

// Name implements Router.
func (ChitChat) Name() string { return "chitchat" }

// SelectOffers implements Router.
func (ChitChat) SelectOffers(u, v NodeView) []Offer {
	ut, vt := u.Interests(), v.Interests()
	w := newWalk(u, v)
	atCeiling := w.atCeiling(ut)
	for w.next() {
		switch {
		case w.dest():
			w.offer(RoleDestination)
		case atCeiling:
			// u holds every tag at the ceiling: not a relay.
		case relayRole(w.ids(), ut, vt) == RoleRelay:
			w.offer(RoleRelay)
		}
	}
	return w.offers
}
