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
	var offers []Offer
	check := newPeerCheck(v)
	for _, m := range u.Buffer().Messages() {
		if !check.eligible(m) {
			continue
		}
		if v.Interests().HasDirectAnyID(KeywordIDs(m, u.Interests().Interner())) {
			offers = append(offers, Offer{Msg: m, Role: RoleDestination})
			continue
		}
		// Only the source sprays; relays wait for destinations.
		if m.Source == u.ID() {
			offers = append(offers, Offer{Msg: m, Role: RoleRelay})
		}
	}
	return offers
}
