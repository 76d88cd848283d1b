package routing

// Epidemic implements Vahdat & Becker's flooding baseline: every contact
// replicates every message the peer does not hold. It achieves the highest
// delivery ratio at maximal overhead, which is the traffic ceiling the
// thesis introduction measures other schemes against.
type Epidemic struct{}

var _ Router = Epidemic{}

// NewEpidemic returns the router.
func NewEpidemic() Epidemic { return Epidemic{} }

// Name implements Router.
func (Epidemic) Name() string { return "epidemic" }

// SelectOffers implements Router.
func (Epidemic) SelectOffers(u, v NodeView) []Offer {
	var offers []Offer
	check := newPeerCheck(v)
	for _, m := range u.Buffer().Messages() {
		if !check.eligible(m) {
			continue
		}
		role := ClassifyPeer(m, u, v)
		if role != RoleDestination {
			// Epidemic replicates regardless of interest strength.
			role = RoleRelay
		}
		offers = append(offers, Offer{Msg: m, Role: role})
	}
	return offers
}
