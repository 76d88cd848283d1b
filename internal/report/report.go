// Package report is the simulator's event vocabulary, modelled on the ONE
// simulator's report modules: the engine emits a typed event stream
// (contacts, handovers, deliveries, payments, enrichment) that observers
// in internal/obs render as a ONE-style connectivity trace, a JSONL event
// log, or contact statistics.
package report

import (
	"time"

	"dtnsim/internal/ident"
)

// Kind tags an event.
type Kind int

// Event kinds.
const (
	ContactUp Kind = iota + 1
	ContactDown
	MessageCreated
	Relayed
	Delivered
	TransferAborted
	Payment
	TagAdded
)

// String names the kind using ONE-ish vocabulary.
func (k Kind) String() string {
	switch k {
	case ContactUp:
		return "CONN_UP"
	case ContactDown:
		return "CONN_DOWN"
	case MessageCreated:
		return "CREATE"
	case Relayed:
		return "RELAY"
	case Delivered:
		return "DELIVER"
	case TransferAborted:
		return "ABORT"
	case Payment:
		return "PAY"
	case TagAdded:
		return "TAG"
	default:
		return "UNKNOWN"
	}
}

// Event is one simulation occurrence. Fields beyond At/Kind are populated
// per kind: contacts carry A and B; message events carry A (the holder or
// sender), B (the receiver, when any), and Msg; payments carry A (payer),
// B (payee), and Tokens; tags carry A (the tagger), Msg, and Keyword.
type Event struct {
	At      time.Duration
	Kind    Kind
	A, B    ident.NodeID
	Msg     ident.MessageID
	Tokens  float64
	Keyword string
	// Relevant qualifies TagAdded events.
	Relevant bool
}

// AllKinds lists every event kind in declaration order; tests and
// exhaustive encoders iterate it instead of hand-maintaining the set.
func AllKinds() []Kind {
	return []Kind{
		ContactUp, ContactDown, MessageCreated, Relayed,
		Delivered, TransferAborted, Payment, TagAdded,
	}
}
