package routing

// TwoHop implements the two-hop relay baseline the thesis surveys ("in
// two-hop relay, a message will be delivered to destination if source and
// destination are within two-hops reachability"): the source replicates to
// encountered relays, relays hold their copy until they meet a destination,
// and never replicate further. Path length is therefore at most two hops.
type TwoHop struct{}

var _ Router = TwoHop{}

// NewTwoHop returns the router.
func NewTwoHop() TwoHop { return TwoHop{} }

// Name implements Router.
func (TwoHop) Name() string { return "two-hop" }

// SelectOffers implements Router.
func (TwoHop) SelectOffers(u, v NodeView) []Offer {
	uID := u.ID()
	w := newWalk(u, v)
	for w.next() {
		switch {
		case w.dest():
			w.offer(RoleDestination)
		case w.msg().Source == uID:
			// Only the source sprays; relays wait for destinations.
			w.offer(RoleRelay)
		}
	}
	return w.offers
}
