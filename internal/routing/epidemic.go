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
	w := newWalk(u, v)
	for w.next() {
		// Epidemic replicates regardless of interest strength.
		role := RoleRelay
		if w.dest() {
			role = RoleDestination
		}
		w.offer(role)
	}
	return w.offers
}
