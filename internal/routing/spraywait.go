package routing

// SprayCopies is Spray-and-Wait's initial copy budget L per message.
const SprayCopies = 8

// SprayAndWait implements the binary Spray-and-Wait baseline (Spyropoulos
// et al.): a message starts with SprayCopies logical copies; a custodian
// holding c > 1 copies hands ⌈c/2⌉ to an encountered relay, and a custodian
// with a single copy waits for a destination. This bounds replication at
// SprayCopies copies per message while keeping multi-path delivery.
//
// The copy counter lives in Message.CopiesLeft; the engine splits it with
// SplitCopies after a transfer completes, so the split happens exactly once
// per successful replication.
type SprayAndWait struct{}

var _ Router = (*SprayAndWait)(nil)

// NewSprayAndWait returns the router.
func NewSprayAndWait() *SprayAndWait { return &SprayAndWait{} }

// Name implements Router.
func (s *SprayAndWait) Name() string { return "spray-and-wait" }

// SelectOffers implements Router.
func (s *SprayAndWait) SelectOffers(u, v NodeView) []Offer {
	w := newWalk(u, v)
	for w.next() {
		switch {
		case w.dest():
			w.offer(RoleDestination)
		case w.msg().CopiesLeft > 1:
			// Spray phase: replicate to any willing carrier.
			w.offer(RoleRelay)
		default:
			// Wait phase: single copy, destination-only.
		}
	}
	return w.offers
}

// SplitCopies computes the binary split of c copies: the sender keeps
// ⌊c/2⌋ and the receiver takes ⌈c/2⌉.
func SplitCopies(c int) (keep, give int) {
	if c <= 1 {
		return c, 0
	}
	give = (c + 1) / 2
	return c - give, give
}
