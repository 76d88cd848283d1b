package routing

// Direct implements Direct-Contact routing: the source holds its messages
// until it meets a destination. Zero replication overhead, lowest delivery
// ratio — the other end of the trade-off spectrum from Epidemic.
type Direct struct{}

var _ Router = Direct{}

// NewDirect returns the router.
func NewDirect() Direct { return Direct{} }

// Name implements Router.
func (Direct) Name() string { return "direct" }

// SelectOffers implements Router.
func (Direct) SelectOffers(u, v NodeView) []Offer {
	w := newWalk(u, v)
	for w.next() {
		if w.dest() {
			w.offer(RoleDestination)
		}
	}
	return w.offers
}
