// Package metrics collects the simulation observables behind every figure
// in the evaluation: message delivery ratio (Figures 5.1, 5.3, 5.5), relayed
// traffic (Figure 5.2), malicious-node rating time series (Figure 5.4), and
// per-priority delivery counts (Figure 5.6), plus token-economy and
// enrichment counters used by the ablation benches.
package metrics

import (
	"time"

	"dtnsim/internal/bitset"
	"dtnsim/internal/ident"
	"dtnsim/internal/message"
)

// Collector accumulates counters over one simulation run. It is owned by
// the engine and updated synchronously; not safe for concurrent use.
type Collector struct {
	created           int
	createdByPriority map[message.Priority]int

	// deliveredTo is the first-deliverer record, indexed by message
	// handle: the destinations the message has reached, or nil before its
	// first delivery. The set is allocated on that first delivery.
	deliveredTo         []bitset.Set
	delivered           int // messages delivered to at least one destination
	deliveredByPriority map[message.Priority]int
	latencySum          time.Duration

	transfers       int // every completed message handover (the traffic metric)
	relayTransfers  int // handovers to relays only
	abortedTransfer int // contact dropped mid-transfer

	refusedNoTokens   int // zero-token rule blocked a destination handover
	refusedReputation int // avoid-bar blocked a transfer
	refusedRadioOff   int // selfish node kept its radio closed

	tagsAdded      int
	relevantTags   int
	irrelevantTags int

	ratingSamples []RatingSample
}

// RatingSample is one point of the Figure 5.4 time series.
type RatingSample struct {
	At time.Duration
	// MeanMaliciousRating is the average, over all honest nodes, of their
	// current rating of all malicious nodes.
	MeanMaliciousRating float64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		createdByPriority:   make(map[message.Priority]int),
		deliveredByPriority: make(map[message.Priority]int),
	}
}

// MessageCreated records an originated message.
func (c *Collector) MessageCreated(m *message.Message) {
	c.created++
	c.createdByPriority[m.Priority]++
}

// Transferred records a completed handover; toRelay distinguishes relay
// traffic from destination deliveries.
func (c *Collector) Transferred(toRelay bool) {
	c.transfers++
	if toRelay {
		c.relayTransfers++
	}
}

// Delivered records a message reaching a destination. The first delivery of
// a message to any destination marks the message delivered (the MDR
// numerator); per-pair bookkeeping additionally supports the
// first-deliverer-only payment rule. It reports whether this (message,
// destination) pair is new.
func (c *Collector) Delivered(m *message.Message, dest ident.NodeID, now time.Duration) bool {
	if c.WasDelivered(m.Handle, dest) {
		return false
	}
	for int(m.Handle) >= len(c.deliveredTo) {
		c.deliveredTo = append(c.deliveredTo, nil)
	}
	dests := &c.deliveredTo[m.Handle]
	if *dests == nil {
		c.delivered++
		c.deliveredByPriority[m.Priority]++
		c.latencySum += now - m.CreatedAt
	}
	dests.Add(int(dest))
	return true
}

// WasDelivered reports whether the message with handle h has already
// reached dest — the engine's first-deliverer check.
func (c *Collector) WasDelivered(h message.Handle, dest ident.NodeID) bool {
	return int(h) < len(c.deliveredTo) && c.deliveredTo[h].Has(int(dest))
}

// TransferAborted records a contact dropping mid-transfer.
func (c *Collector) TransferAborted() { c.abortedTransfer++ }

// RefusedNoTokens records a handover blocked by an empty wallet.
func (c *Collector) RefusedNoTokens() { c.refusedNoTokens++ }

// RefusedReputation records a transfer refused due to the sender's low
// reputation.
func (c *Collector) RefusedReputation() { c.refusedReputation++ }

// RefusedRadioOff records an encounter lost to a closed radio.
func (c *Collector) RefusedRadioOff() { c.refusedRadioOff++ }

// TagAdded records one enrichment tag and whether it matched ground truth.
func (c *Collector) TagAdded(relevant bool) {
	c.tagsAdded++
	if relevant {
		c.relevantTags++
	} else {
		c.irrelevantTags++
	}
}

// SampleMaliciousRating appends a Figure 5.4 sample.
func (c *Collector) SampleMaliciousRating(at time.Duration, mean float64) {
	c.ratingSamples = append(c.ratingSamples, RatingSample{At: at, MeanMaliciousRating: mean})
}

// Report is the immutable summary of one run.
type Report struct {
	Created             int
	Delivered           int
	MDR                 float64
	Transfers           int
	RelayTransfers      int
	AbortedTransfers    int
	RefusedNoTokens     int
	RefusedReputation   int
	RefusedRadioOff     int
	TagsAdded           int
	RelevantTags        int
	IrrelevantTags      int
	MeanLatency         time.Duration
	CreatedByPriority   map[message.Priority]int
	DeliveredByPriority map[message.Priority]int
	RatingSeries        []RatingSample
}

// Snapshot produces the run summary.
func (c *Collector) Snapshot() Report {
	r := Report{
		Created:             c.created,
		Delivered:           c.delivered,
		Transfers:           c.transfers,
		RelayTransfers:      c.relayTransfers,
		AbortedTransfers:    c.abortedTransfer,
		RefusedNoTokens:     c.refusedNoTokens,
		RefusedReputation:   c.refusedReputation,
		RefusedRadioOff:     c.refusedRadioOff,
		TagsAdded:           c.tagsAdded,
		RelevantTags:        c.relevantTags,
		IrrelevantTags:      c.irrelevantTags,
		CreatedByPriority:   make(map[message.Priority]int, len(c.createdByPriority)),
		DeliveredByPriority: make(map[message.Priority]int, len(c.deliveredByPriority)),
		RatingSeries:        append([]RatingSample(nil), c.ratingSamples...),
	}
	for k, v := range c.createdByPriority {
		r.CreatedByPriority[k] = v
	}
	for k, v := range c.deliveredByPriority {
		r.DeliveredByPriority[k] = v
	}
	if c.created > 0 {
		r.MDR = float64(c.delivered) / float64(c.created)
	}
	if c.delivered > 0 {
		r.MeanLatency = c.latencySum / time.Duration(c.delivered)
	}
	return r
}

// PriorityMDR returns the delivery ratio within one priority class.
func (r Report) PriorityMDR(p message.Priority) float64 {
	created := r.CreatedByPriority[p]
	if created == 0 {
		return 0
	}
	return float64(r.DeliveredByPriority[p]) / float64(created)
}
