package core

import (
	"time"

	"dtnsim/internal/ident"
	"dtnsim/internal/message"
)

// This file is the run's outcome: what it delivered, moved and refused,
// the observables behind every figure in the evaluation — message delivery
// ratio (Figures 5.1, 5.3, 5.5), relayed traffic (Figure 5.2), the
// malicious-node rating series (Figure 5.4) and per-priority delivery
// (Figure 5.6). The counts live on the engine's obs.Registry next to the
// cost counters (see initObservability), so every snapshot carries them;
// Result reads them back. The first-deliverer record, the latency sum and
// the rating series are not counts, so they are engine state beside them.

// RatingSample is one point of the Figure 5.4 time series.
type RatingSample struct {
	At time.Duration
	// MeanMaliciousRating is the average, over all honest nodes, of their
	// current rating of all malicious nodes.
	MeanMaliciousRating float64
}

// Result is the outcome of one run: its delivery, traffic, refusal and tag
// counts, the rating series, and the token-economy and energy summaries
// the experiments read.
type Result struct {
	Created           int
	Delivered         int // messages delivered to at least one destination
	MDR               float64
	Transfers         int // every completed message handover (the traffic metric)
	RelayTransfers    int // handovers to relays only
	AbortedTransfers  int // transfers a contact teardown abandoned, mid-flight or queued
	RefusedNoTokens   int // the zero-token rule blocked a handover
	RefusedReputation int // the avoid bar blocked a transfer
	RefusedRadioOff   int // a selfish node kept its radio closed
	TagsAdded         int
	RelevantTags      int
	IrrelevantTags    int
	MeanLatency       time.Duration
	// The per-priority maps hold a key only for a nonzero count.
	CreatedByPriority   map[message.Priority]int
	DeliveredByPriority map[message.Priority]int
	RatingSeries        []RatingSample
	Scheme              Scheme
	Nodes               int
	TokensMin           float64
	TokensMax           float64
	TokensMean          float64
	ExhaustedNodes      int // nodes that ended with (near-)zero tokens
	DeadRadios          int // nodes whose battery budget ran out
	LedgerTransfers     int
	LedgerVolume        float64
	EnergyJoules        float64
}

// PriorityMDR returns the delivery ratio within one priority class.
func (r Result) PriorityMDR(p message.Priority) float64 {
	created := r.CreatedByPriority[p]
	if created == 0 {
		return 0
	}
	return float64(r.DeliveredByPriority[p]) / float64(created)
}

// wasDelivered reports whether the message with handle h has already
// reached dest — the engine's first-deliverer check.
func (e *Engine) wasDelivered(h message.Handle, dest ident.NodeID) bool {
	return int(h) < len(e.deliveredTo) && e.deliveredTo[h].Has(int(dest))
}

// markDelivered records m reaching dest at now. The first delivery of a
// message to any destination marks the message delivered (the MDR
// numerator); the per-destination set is the first-deliverer record.
func (e *Engine) markDelivered(m *message.Message, dest ident.NodeID, now time.Duration) {
	for int(m.Handle) >= len(e.deliveredTo) {
		e.deliveredTo = append(e.deliveredTo, nil)
	}
	dests := &e.deliveredTo[m.Handle]
	if *dests == nil {
		e.ctrDelivered.Inc()
		e.ctrDeliveredBy[m.Priority-1].Inc()
		e.latencySum += now - m.CreatedAt
	}
	dests.Add(int(dest))
}

// Result summarises the run so far, reading its counts off the registry.
func (e *Engine) Result() Result {
	r := Result{
		Created:             int(e.ctrCreated.Value()),
		Delivered:           int(e.ctrDelivered.Value()),
		Transfers:           int(e.ctrTransfers.Value()),
		RelayTransfers:      int(e.ctrRelay.Value()),
		AbortedTransfers:    int(e.ctrAborted.Value()),
		RefusedNoTokens:     int(e.ctrRefusedTokens.Value()),
		RefusedReputation:   int(e.ctrRefusedRep.Value()),
		RefusedRadioOff:     int(e.ctrRefusedRadio.Value()),
		TagsAdded:           int(e.ctrTags.Value()),
		RelevantTags:        int(e.ctrTagsRelevant.Value()),
		IrrelevantTags:      int(e.ctrTags.Value() - e.ctrTagsRelevant.Value()),
		CreatedByPriority:   make(map[message.Priority]int),
		DeliveredByPriority: make(map[message.Priority]int),
		RatingSeries:        append([]RatingSample(nil), e.ratingSeries...),
		Scheme:              e.cfg.Scheme,
		Nodes:               len(e.nodes),
		LedgerTransfers:     e.ledger.Transfers(),
		LedgerVolume:        e.ledger.Volume(),
	}
	for i, p := range priorities {
		if n := e.ctrCreatedBy[i].Value(); n > 0 {
			r.CreatedByPriority[p] = int(n)
		}
		if n := e.ctrDeliveredBy[i].Value(); n > 0 {
			r.DeliveredByPriority[p] = int(n)
		}
	}
	if r.Created > 0 {
		r.MDR = float64(r.Delivered) / float64(r.Created)
	}
	if r.Delivered > 0 {
		r.MeanLatency = e.latencySum / time.Duration(r.Delivered)
	}
	if len(e.nodes) == 0 {
		return r
	}
	minB, maxB := e.nodes[0].wallet.Balance(), e.nodes[0].wallet.Balance()
	var sum, energy float64
	for _, n := range e.nodes {
		b := n.wallet.Balance()
		if b < minB {
			minB = b
		}
		if b > maxB {
			maxB = b
		}
		sum += b
		energy += n.energy.Total()
		if b < 1 {
			r.ExhaustedNodes++
		}
		if n.batteryDead(e.cfg.BatteryJoules) {
			r.DeadRadios++
		}
	}
	r.TokensMin = minB
	r.TokensMax = maxB
	r.TokensMean = sum / float64(len(e.nodes))
	r.EnergyJoules = energy
	return r
}

// priorities are the message priority levels, in the order of the
// per-priority counters (Engine.ctrCreatedBy, Engine.ctrDeliveredBy).
var priorities = [3]message.Priority{message.PriorityHigh, message.PriorityMedium, message.PriorityLow}
