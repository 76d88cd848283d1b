package scenario

import (
	"encoding/json"
	"fmt"
	"time"

	"dtnsim/internal/core"
)

// This file gives Spec a stable JSON form so the same run description
// travels over every surface — the dtnserved HTTP body, saved experiment
// profiles, and any future config files — and decodes back to the exact
// Spec a CLI invocation would build. Two deliberate choices:
//
//   - Durations accept both Go duration strings ("24h", "90s") and raw
//     nanosecond numbers, and always marshal as strings, so hand-written
//     request bodies stay human-readable.
//   - Unmarshalling MERGES onto the receiver: absent fields keep their
//     current values. Decoding a partial body onto scenario.Default(...)
//     yields defaults-plus-overrides, mirroring how the CLIs layer flags
//     over the same defaults.
//
// The Router field (a live routing.Router instance) has no JSON form;
// router selection travels as the "router" name (RouterName), which Build
// instantiates freshly per run.

// flexDur is a time.Duration that marshals as a Go duration string and
// unmarshals from either a string or a nanosecond count.
type flexDur time.Duration

// MarshalJSON implements json.Marshaler.
func (d flexDur) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *flexDur) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		parsed, perr := time.ParseDuration(s)
		if perr != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, perr)
		}
		*d = flexDur(parsed)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("scenario: duration must be a string or nanosecond count, got %s", b)
	}
	*d = flexDur(ns)
	return nil
}

// specJSON is Spec's wire shadow: every Spec field except the
// non-serialisable Router instance, with durations widened to flexDur.
// TestSpecJSONCoversEveryField enforces the field-for-field parity, so
// adding a Spec knob without a wire form fails fast.
type specJSON struct {
	Nodes               int         `json:"nodes"`
	KeywordPool         int         `json:"keyword_pool"`
	InterestsPerNode    int         `json:"interests_per_node"`
	SelfishPercent      int         `json:"selfish_percent"`
	SelfishOpenProb     float64     `json:"selfish_open_prob"`
	MaliciousPercent    int         `json:"malicious_percent"`
	MaliciousLowQuality bool        `json:"malicious_low_quality"`
	ClassSplit          bool        `json:"class_split"`
	CommanderPercent    int         `json:"commander_percent"`
	Scheme              core.Scheme `json:"scheme"`
	Seed                int64       `json:"seed"`
	Heartbeat           flexDur     `json:"heartbeat"`
	Duration            flexDur     `json:"duration"`
	AreaKm2             float64     `json:"area_km2"`
	InitialTokens       float64     `json:"initial_tokens"`
	MeanMessageInterval flexDur     `json:"mean_message_interval"`
	RouterName          string      `json:"router"`
	DisableReputation   bool        `json:"disable_reputation"`
	DisableEnrichment   bool        `json:"disable_enrichment"`
	PlainBuffers        bool        `json:"plain_buffers"`
	NoPrepay            bool        `json:"no_prepay"`
	Step                flexDur     `json:"step"`
	BatteryJoules       float64     `json:"battery_joules"`
	BetaReputation      bool        `json:"beta_reputation"`
}

func (s Spec) shadow() specJSON {
	return specJSON{
		Nodes:               s.Nodes,
		KeywordPool:         s.KeywordPool,
		InterestsPerNode:    s.InterestsPerNode,
		SelfishPercent:      s.SelfishPercent,
		SelfishOpenProb:     s.SelfishOpenProb,
		MaliciousPercent:    s.MaliciousPercent,
		MaliciousLowQuality: s.MaliciousLowQuality,
		ClassSplit:          s.ClassSplit,
		CommanderPercent:    s.CommanderPercent,
		Scheme:              s.Scheme,
		Seed:                s.Seed,
		Heartbeat:           flexDur(s.Heartbeat),
		Duration:            flexDur(s.Duration),
		AreaKm2:             s.AreaKm2,
		InitialTokens:       s.InitialTokens,
		MeanMessageInterval: flexDur(s.MeanMessageInterval),
		RouterName:          s.RouterName,
		DisableReputation:   s.DisableReputation,
		DisableEnrichment:   s.DisableEnrichment,
		PlainBuffers:        s.PlainBuffers,
		NoPrepay:            s.NoPrepay,
		Step:                flexDur(s.Step),
		BatteryJoules:       s.BatteryJoules,
		BetaReputation:      s.BetaReputation,
	}
}

func (s *Spec) fromShadow(w specJSON) {
	s.Nodes = w.Nodes
	s.KeywordPool = w.KeywordPool
	s.InterestsPerNode = w.InterestsPerNode
	s.SelfishPercent = w.SelfishPercent
	s.SelfishOpenProb = w.SelfishOpenProb
	s.MaliciousPercent = w.MaliciousPercent
	s.MaliciousLowQuality = w.MaliciousLowQuality
	s.ClassSplit = w.ClassSplit
	s.CommanderPercent = w.CommanderPercent
	s.Scheme = w.Scheme
	s.Seed = w.Seed
	s.Heartbeat = time.Duration(w.Heartbeat)
	s.Duration = time.Duration(w.Duration)
	s.AreaKm2 = w.AreaKm2
	s.InitialTokens = w.InitialTokens
	s.MeanMessageInterval = time.Duration(w.MeanMessageInterval)
	s.RouterName = w.RouterName
	s.DisableReputation = w.DisableReputation
	s.DisableEnrichment = w.DisableEnrichment
	s.PlainBuffers = w.PlainBuffers
	s.NoPrepay = w.NoPrepay
	s.Step = time.Duration(w.Step)
	s.BatteryJoules = w.BatteryJoules
	s.BetaReputation = w.BetaReputation
}

// MarshalJSON implements json.Marshaler. A Spec carrying a live Router
// instance without a RouterName cannot round-trip and is rejected.
func (s Spec) MarshalJSON() ([]byte, error) {
	if s.Router != nil && s.RouterName == "" {
		return nil, fmt.Errorf("scenario: a Router instance has no JSON form; set RouterName instead")
	}
	return json.Marshal(s.shadow())
}

// UnmarshalJSON implements json.Unmarshaler with merge semantics: fields
// absent from the JSON keep the receiver's current values, so decoding a
// partial body onto Default(...) layers overrides over defaults. Unknown
// keys are ignored, so bodies carrying retired knobs ("workers",
// "regions", "table_cap", "contact_skin") still decode.
func (s *Spec) UnmarshalJSON(b []byte) error {
	w := s.shadow()
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	s.fromShadow(w)
	return nil
}
