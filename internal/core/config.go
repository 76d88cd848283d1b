// Package core is the paper's primary contribution assembled into a running
// system: a DTN engine that layers the credit-based incentive mechanism, the
// distributed reputation model (DRM), and content enrichment on top of
// ChitChat routing, driven by the discrete-time kernel and the world,
// mobility, radio, and buffer substrates.
//
// The public surface is:
//
//   - Config / NodeSpec — declarative description of a network;
//   - Engine — builds and runs a simulation, producing a metrics.Report;
//   - Device — the §4 operator-function façade (Annotate, Subscribe,
//     ComputeIncentive, RateMessage, Enrich, ...) over a live node.
package core

import (
	"encoding/json"
	"fmt"
	"time"

	"dtnsim/internal/buffer"
	"dtnsim/internal/incentive"
	"dtnsim/internal/interest"
	"dtnsim/internal/obs"
	"dtnsim/internal/radio"
	"dtnsim/internal/reputation"
	"dtnsim/internal/routing"
	"dtnsim/internal/trace"
	"dtnsim/internal/world"
)

// Scheme selects which protocol stack the engine runs.
type Scheme int

// Available schemes.
const (
	// SchemeChitChat runs plain ChitChat routing: no tokens, no
	// reputation, no enrichment. This is the paper's comparison baseline.
	SchemeChitChat Scheme = iota + 1
	// SchemeIncentive runs the full proposal: ChitChat routing plus the
	// credit incentive, the DRM, and content enrichment.
	SchemeIncentive
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeChitChat:
		return "chitchat"
	case SchemeIncentive:
		return "incentive"
	default:
		return fmt.Sprintf("scheme-%d", int(s))
	}
}

// SchemeByName resolves a scheme from its canonical name.
func SchemeByName(name string) (Scheme, error) {
	switch name {
	case "chitchat":
		return SchemeChitChat, nil
	case "incentive":
		return SchemeIncentive, nil
	default:
		return 0, fmt.Errorf("core: unknown scheme %q (want chitchat or incentive)", name)
	}
}

// MarshalJSON encodes the scheme as its canonical name, so serialized run
// descriptions read "incentive" rather than a bare enum ordinal.
func (s Scheme) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts either the canonical name or the numeric ordinal
// (the historical wire form for anyone who serialized the raw int).
func (s *Scheme) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err == nil {
		v, verr := SchemeByName(name)
		if verr != nil {
			return verr
		}
		*s = v
		return nil
	}
	var n int
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("core: scheme must be a name or ordinal, got %s", b)
	}
	v := Scheme(n)
	if v != SchemeChitChat && v != SchemeIncentive {
		return fmt.Errorf("core: unknown scheme ordinal %d", n)
	}
	*s = v
	return nil
}

// ReputationModel selects the reputation implementation.
type ReputationModel int

// Available reputation models.
const (
	// ReputationDRM is the paper's distributed reputation model.
	ReputationDRM ReputationModel = iota
	// ReputationBeta is the REPSYS-style Bayesian comparator.
	ReputationBeta
)

// String names the model.
func (m ReputationModel) String() string {
	switch m {
	case ReputationDRM:
		return "drm"
	case ReputationBeta:
		return "beta"
	default:
		return fmt.Sprintf("reputation-model-%d", int(m))
	}
}

// Config is the complete engine configuration. DefaultConfig returns the
// Table 5.1 alignment; experiments mutate the copy they get.
type Config struct {
	// Seed drives every random stream in the run.
	Seed int64
	// Step is the tick granularity.
	Step time.Duration
	// Duration is the simulated time span (Table 5.1: 24 h).
	Duration time.Duration
	// Area is the world rectangle (Table 5.1: 5 km²).
	Area world.Rect
	// Radio is the link/energy model (Table 5.1: 100 m, 250 kBps).
	Radio radio.Params
	// BufferCapacity is per-node storage (Table 5.1: 250 MB).
	BufferCapacity int64
	// Interest tunes the RTSR model.
	Interest interest.Params
	// Incentive tunes the credit mechanism (Table 5.1: 200 tokens).
	Incentive incentive.Params
	// Reputation tunes the DRM.
	Reputation reputation.Params
	// ReputationModel selects the model implementation; the zero value is
	// the paper's DRM.
	ReputationModel ReputationModel
	// Scheme selects baseline vs full proposal.
	Scheme Scheme
	// Router overrides the routing algorithm; nil means ChitChat. The
	// incentive layer composes with any Router ("our proposed scheme can
	// be integrated with any other DTN routing scheme").
	Router routing.Router
	// EnrichmentEnabled can disable content enrichment within
	// SchemeIncentive for the ablation benches.
	EnrichmentEnabled bool
	// ReputationEnabled can disable the DRM within SchemeIncentive for the
	// ablation benches (awards then use a factor of 1).
	ReputationEnabled bool
	// PriorityBuffers selects the DropLowPriority eviction policy instead
	// of DropOldest.
	PriorityBuffers bool
	// RatingSampleInterval is the Figure 5.4 sampling period; zero
	// disables sampling.
	RatingSampleInterval time.Duration
	// BatteryJoules is each node's radio energy budget; once a node's
	// cumulative transmit+receive energy reaches it, its radio dies for
	// the rest of the run. Zero means unlimited (the paper's evaluation
	// setting — battery scarcity there motivates *behaviour*, it does not
	// hard-kill radios; the budget enables the battery ablation).
	BatteryJoules float64
	// Workload drives message generation.
	Workload WorkloadConfig
	// Observers subscribe to the run through the unified observer API:
	// every report.Event in emission order (filtered per obs.KindFilter),
	// run start/end, and — when Heartbeat is set — periodic snapshots.
	// With no observers attached the engine keeps the historical nil fast
	// path: events cost one length check and traces stay byte-identical.
	Observers []obs.Observer
	// Heartbeat, when positive, emits an obs.Snapshot to every observer on
	// this wall-clock interval (checked after the tick that crosses it).
	// Zero disables heartbeats.
	Heartbeat time.Duration
	// ContactTrace, when non-nil, replays recorded connectivity instead of
	// deriving contacts from mobility and radio range; node IDs in the
	// trace must exist in the network. Friis distances are not available
	// in trace mode, so the hardware incentive uses the nominal
	// half-range receive power.
	ContactTrace *trace.Schedule
}

// DefaultConfig returns the Table 5.1 paper-scale configuration for the
// incentive scheme.
func DefaultConfig() Config {
	return Config{
		Seed:                 1,
		Step:                 time.Second,
		Duration:             24 * time.Hour,
		Area:                 world.SquareKm(5),
		Radio:                radio.Default(),
		BufferCapacity:       250 << 20,
		Interest:             interest.DefaultParams(),
		Incentive:            incentive.DefaultParams(),
		Reputation:           reputation.DefaultParams(),
		Scheme:               SchemeIncentive,
		EnrichmentEnabled:    true,
		ReputationEnabled:    true,
		PriorityBuffers:      true,
		RatingSampleInterval: 30 * time.Minute,
	}
}

// Validate checks the configuration end to end.
func (c Config) Validate() error {
	switch {
	case c.Step <= 0:
		return fmt.Errorf("core: step must be positive, got %v", c.Step)
	case c.Duration <= 0:
		return fmt.Errorf("core: duration must be positive, got %v", c.Duration)
	case c.BufferCapacity <= 0:
		return fmt.Errorf("core: buffer capacity must be positive, got %d", c.BufferCapacity)
	case c.Scheme != SchemeChitChat && c.Scheme != SchemeIncentive:
		return fmt.Errorf("core: unknown scheme %d", int(c.Scheme))
	case c.RatingSampleInterval < 0:
		return fmt.Errorf("core: rating sample interval must be non-negative, got %v", c.RatingSampleInterval)
	case c.Heartbeat < 0:
		return fmt.Errorf("core: heartbeat interval must be non-negative, got %v", c.Heartbeat)
	case c.Area.Width <= 0 || c.Area.Height <= 0:
		return fmt.Errorf("core: area must have positive size")
	case c.BatteryJoules < 0:
		return fmt.Errorf("core: battery budget must be non-negative, got %v", c.BatteryJoules)
	}
	if err := c.Radio.Validate(); err != nil {
		return err
	}
	if err := c.Interest.Validate(); err != nil {
		return err
	}
	if err := c.Incentive.Validate(); err != nil {
		return err
	}
	if err := c.Reputation.Validate(); err != nil {
		return err
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	return nil
}

// bufferPolicy maps the config to an eviction policy. Priority-aware
// eviction is part of the incentive contribution; the ChitChat baseline
// always evicts oldest-first.
func (c Config) bufferPolicy() buffer.Policy {
	if c.PriorityBuffers && c.Scheme == SchemeIncentive {
		return buffer.DropLowPriority{}
	}
	return buffer.DropOldest{}
}

// incentiveActive reports whether the credit mechanism gates transfers.
func (c Config) incentiveActive() bool { return c.Scheme == SchemeIncentive }

// reputationActive reports whether the DRM runs.
func (c Config) reputationActive() bool {
	return c.Scheme == SchemeIncentive && c.ReputationEnabled
}

// enrichmentActive reports whether relays enrich content.
func (c Config) enrichmentActive() bool {
	return c.Scheme == SchemeIncentive && c.EnrichmentEnabled
}
