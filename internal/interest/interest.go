// Package interest implements ChitChat's Real-time Transient Social
// Relationship (RTSR) modelling (Paper I §2.3): each device keeps a table of
// keyword interests with weights in [0, 1]. Direct interests are declared by
// the user (subscription keywords) and decay toward their initial 0.5;
// transient interests are acquired from encountered devices and decay toward
// zero. While devices are connected, shared interests grow according to the
// growth model, weighted by the ψ case factor.
//
// Tables are keyed internally by interned keyword IDs (see Interner); the
// public API speaks strings. Storage is struct-of-arrays: parallel weight
// and timestamp slices plus present/direct bitsets indexed by interned ID,
// so the exchange hot path is array indexing and word-wide set algebra
// rather than pointer chasing.
//
// Decay is lazy (see DESIGN.md "Lazy-decay interest tables"): a row stores
// the weight as of its anchor time T_l (LastShared), and every read
// materializes the decayed value at the table's Clock — one application of
// Algorithm 1's formula over the elapsed gap — instead of every table being
// swept every round. Exchange runs Algorithms 1–2 in place over these rows.
package interest

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"

	"dtnsim/internal/bitset"
	"dtnsim/internal/ident"
)

const (
	// InitialWeight is the weight assigned when a user first declares an
	// interest ("it's weight is set to 0.5").
	InitialWeight = 0.5
	// MaxWeight caps all weights ("Maximum allowed value for the weight
	// is 1").
	MaxWeight = 1.0
	// Beta is the decay constant β in W_n = (W_p-0.5)/(β·ΔT)+0.5. The
	// paper's worked example uses β = 2 over ΔT in seconds.
	Beta float64 = 2
	// PruneBelow drops transient entries whose weight decays under this
	// threshold, bounding table growth over a 24 h run.
	PruneBelow float64 = 0.01
)

// invBeta and invBetaTheta are 1/β and 1/(β·θ), so the death-bound
// arithmetic on the sweep path is multiplies, not divides. Each constant is
// one typed operation on two operands, so it rounds as the runtime would
// (DESIGN.md "Fixed parameters").
const (
	invBeta      float64 = 1 / Beta
	betaTheta    float64 = Beta * PruneBelow
	invBetaTheta float64 = 1 / betaTheta
)

// noDeath is the next-eviction deadline of a table with no transient row
// that can ever decay below the prune threshold.
const noDeath = time.Duration(math.MaxInt64)

// Params tunes the RTSR model.
type Params struct {
	// GrowthRate scales the growth model's contact-age term. The printed
	// formula Δ += w_v(I)·(T_c-T_v)/ψ measures contact age in raw seconds
	// and saturates any shared interest within seconds; GrowthRate r
	// applies Δ += w_v(I)·r·Δt/ψ per exchange interval Δt, so r = 1/60
	// saturates a fully-shared (w_v = 1, ψ = 1) interest after one minute
	// of contact. Set r = 1 to recover the literal formula.
	GrowthRate float64
}

// DefaultParams returns the calibration used by the paper-scale scenarios.
func DefaultParams() Params {
	return Params{GrowthRate: 1.0 / 60.0}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.GrowthRate <= 0 {
		return fmt.Errorf("interest: growth rate must be positive, got %v", p.GrowthRate)
	}
	return nil
}

// Clock is the virtual time source a table reads to materialize lazy decay;
// *sim.Clock satisfies it.
type Clock interface {
	Now() time.Duration
}

// Row is a value copy of one interest row. Weight is the stored anchor
// weight — the weight as of LastShared; Table.Weight/WeightAt return the
// time-decayed view.
type Row struct {
	// Weight is the strength as of LastShared, in [0, MaxWeight].
	Weight float64
	// Direct marks a user-declared subscription keyword; false means the
	// interest is transient (acquired from an encounter).
	Direct bool
	// LastShared is T_l: the latest time a connected device shared this
	// interest (or its weight was re-anchored). Decay measures elapsed
	// time from here.
	LastShared time.Duration
	// AcquiredFrom records the device a transient interest came from (the
	// demo app shows this as the MAC address column; SELF for direct).
	AcquiredFrom ident.NodeID
}

// Table is one device's interest table. Not safe for concurrent use.
type Table struct {
	params Params
	in     *Interner
	clock  Clock

	// Struct-of-arrays row storage, indexed by interned keyword ID: a row
	// exists iff its present bit is set; weights/lastShared/source are the
	// parallel payload slices (zeroed while absent).
	weights    []float64
	lastShared []time.Duration
	source     []ident.NodeID
	present    bitset.Set
	direct     bitset.Set
	count      int

	// sat marks present rows whose stored anchor weight is exactly MaxWeight
	// — the rows the growth loop's saturation skip drops. Safety is
	// one-sided: a clear bit on a saturated row only costs the per-bit
	// weight check, but a set bit on an unsaturated row would skip growth
	// that must happen. Every weight write therefore keeps the bit exact
	// (set iff the written weight == MaxWeight), and the exchange round's
	// growth masks whole words of mutually saturated rows without loading
	// their weights.
	sat bitset.Set

	// nextDeath is a conservative lower bound on the earliest time any
	// transient row can decay below PruneBelow. The exchange round sweeps
	// eviction candidates only when now has reached it — prune-below
	// eviction folded into the next touch instead of a per-round pass.
	nextDeath time.Duration
}

// NewTable creates an empty table sharing the given interner whose reads
// materialize decay at clock.Now() (the engine passes its kernel clock).
// Every table in a run must share one interner.
func NewTable(params Params, in *Interner, clock Clock) (*Table, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if in == nil {
		return nil, fmt.Errorf("interest: table requires an interner")
	}
	if clock == nil {
		return nil, fmt.Errorf("interest: table requires a clock")
	}
	return &Table{params: params, in: in, clock: clock, nextDeath: noDeath}, nil
}

// Interner returns the shared keyword interner.
func (t *Table) Interner() *Interner { return t.in }

// ensure grows the payload slices to cover id.
func (t *Table) ensure(id int32) {
	for int(id) >= len(t.weights) {
		t.weights = append(t.weights, 0)
		t.lastShared = append(t.lastShared, 0)
		t.source = append(t.source, ident.Nobody)
	}
}

// insertRow adds a row; the caller guarantees id is absent.
func (t *Table) insertRow(id int32, w float64, direct bool, at time.Duration, from ident.NodeID) {
	t.ensure(id)
	t.present.Add(int(id))
	if direct {
		t.direct.Add(int(id))
	} else {
		t.direct.Remove(int(id))
		t.mergeDeath(w, at)
	}
	if w == MaxWeight {
		t.sat.Add(int(id))
	}
	t.weights[id] = w
	t.lastShared[id] = at
	t.source[id] = from
	t.count++
}

// removeRow evicts a row, zeroing its payload slots.
func (t *Table) removeRow(id int32) {
	if !t.present.Has(int(id)) {
		return
	}
	t.present.Remove(int(id))
	t.direct.Remove(int(id))
	t.sat.Remove(int(id))
	t.weights[id] = 0
	t.lastShared[id] = 0
	t.source[id] = ident.Nobody
	t.count--
}

// decayedWeight applies Algorithm 1's decay formula to a weight anchored
// elapsed ago, returning the materialized value and whether a transient row
// is dead (below the prune threshold). This one function backs the reads,
// the eviction sweep and the exchange round, so every consumer sees
// bit-identical arithmetic.
//
// Edge-case guard (documented in DESIGN.md): the printed divisor β·(T_c-T_l)
// amplifies weights when below one (e.g. a sub-second gap); we clamp the
// divisor to at least 1 so decay is monotone non-increasing.
func decayedWeight(w float64, direct bool, elapsed time.Duration) (float64, bool) {
	div := Beta * elapsed.Seconds()
	if div < 1 {
		return w, false
	}
	if direct {
		return (w-InitialWeight)/div + InitialWeight, false
	}
	w = w / div
	return w, w < PruneBelow
}

// materialized returns the row's weight as observed at now: one decay step
// over the gap since its anchor — Algorithm 1 as a pure function of elapsed
// time rather than of how often a sweep happened to run.
func (t *Table) materialized(id int32, now time.Duration) float64 {
	w, _ := decayedWeight(t.weights[id], t.direct.Has(int(id)), now-t.lastShared[id])
	return w
}

// deadRow reports whether a transient row is below the prune threshold at
// now: the prune test of the eviction sweep.
func (t *Table) deadRow(id int32, now time.Duration) bool {
	_, dead := decayedWeight(t.weights[id], false, now-t.lastShared[id])
	return dead
}

// maxDeathSeconds bounds the horizon converted into a deadline; anything
// further (≈317 years of virtual time) is "never" for every scenario and
// keeps the float→Duration conversion clear of overflow.
const maxDeathSeconds = 1e10

// deathBound returns a conservative lower bound on the earliest time the
// transient row (weight w anchored at T_l = at) can go dead: the crossing
// solved from w/(β·ΔT) < θ together with the div ≥ 1 clamp, pulled one
// millisecond early so float rounding in the bound can never postpone a
// sweep past the round in which deadRow first fires. An early bound only
// costs a sweep that evicts nothing; a late one would diverge from the
// eager semantics. The same margin absorbs the sub-ulp drift of computing
// w/(β·θ) as a multiply by the precomputed reciprocal.
func (t *Table) deathBound(w float64, at time.Duration) time.Duration {
	secs := invBeta
	if s := w * invBetaTheta; s > secs {
		secs = s
	}
	if secs > maxDeathSeconds {
		return noDeath
	}
	d := at + time.Duration(secs*float64(time.Second)) - time.Millisecond
	if d < at {
		d = at
	}
	return d
}

// mergeDeath folds one transient row's death bound into the table deadline.
func (t *Table) mergeDeath(w float64, at time.Duration) {
	if d := t.deathBound(w, at); d < t.nextDeath {
		t.nextDeath = d
	}
}

// DeclareDirect subscribes the device to a keyword at InitialWeight. If the
// keyword exists as transient it is promoted to direct, keeping the higher
// of its current weight and InitialWeight, and its anchor re-set to now —
// the declaration is a fresh direct signal, so the promoted weight must not
// keep decaying against the transient row's stale T_l (historically it did,
// collapsing the weight bonus toward 0.5 on the next decay). The current
// weight is the one observed at now.
func (t *Table) DeclareDirect(kw string, now time.Duration) {
	id := t.in.ID(kw)
	if t.present.Has(int(id)) {
		w := t.materialized(id, now)
		if w < InitialWeight {
			w = InitialWeight
		}
		if w == MaxWeight {
			t.sat.Add(int(id))
		} else {
			t.sat.Remove(int(id))
		}
		t.weights[id] = w
		t.lastShared[id] = now
		t.direct.Add(int(id))
		t.source[id] = ident.Nobody
		return
	}
	t.insertRow(id, InitialWeight, true, now, ident.Nobody)
}

// Acquire records a transient interest learned from a peer, starting at
// weight zero (growth will raise it while the contact lasts).
func (t *Table) Acquire(kw string, from ident.NodeID, now time.Duration) {
	id := t.in.ID(kw)
	if t.present.Has(int(id)) {
		return
	}
	t.insertRow(id, 0, false, now, from)
}

// Len returns the number of interests (direct + transient).
func (t *Table) Len() int { return t.count }

// Keywords returns all keywords in lexicographic order.
func (t *Table) Keywords() []string {
	out := make([]string, 0, t.count)
	for wi, w := range t.present {
		for w != 0 {
			id := int32(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			out = append(out, t.in.Word(id))
		}
	}
	sort.Strings(out)
	return out
}

// Row returns a value copy of kw's row; ok is false when absent.
func (t *Table) Row(kw string) (Row, bool) {
	id, ok := t.in.Lookup(kw)
	if !ok || !t.present.Has(int(id)) {
		return Row{}, false
	}
	return Row{
		Weight:       t.weights[id],
		Direct:       t.direct.Has(int(id)),
		LastShared:   t.lastShared[id],
		AcquiredFrom: t.source[id],
	}, true
}

// SetWeight overwrites kw's stored anchor weight without touching its
// anchor time — the raw row access tests and demos use to stage table
// states. It is a no-op for absent keywords. It rejects a weight outside
// [0, MaxWeight], NaN included, by panicking: only a caller's bug passes
// one, and routing relies on no weight exceeding MaxWeight (see
// routing.ClassifyPeer).
func (t *Table) SetWeight(kw string, w float64) {
	if !(w >= 0 && w <= MaxWeight) {
		panic(fmt.Sprintf("interest: weight %v for %q outside [0, %v]", w, kw, MaxWeight))
	}
	id, ok := t.in.Lookup(kw)
	if !ok || !t.present.Has(int(id)) {
		return
	}
	if w == MaxWeight {
		t.sat.Add(int(id))
	} else {
		t.sat.Remove(int(id))
	}
	t.weights[id] = w
	if !t.direct.Has(int(id)) {
		t.mergeDeath(w, t.lastShared[id])
	}
}

// Has reports whether the table holds kw (direct or transient).
func (t *Table) Has(kw string) bool {
	id, ok := t.in.Lookup(kw)
	return ok && t.present.Has(int(id))
}

// Weight returns kw's weight observed now (zero when absent): the stored
// anchor decayed to the table clock's time.
func (t *Table) Weight(kw string) float64 {
	return t.WeightAt(kw, t.clock.Now())
}

// WeightAt returns kw's weight materialized at the explicit time now (zero
// when absent).
func (t *Table) WeightAt(kw string, now time.Duration) float64 {
	id, ok := t.in.Lookup(kw)
	if !ok || !t.present.Has(int(id)) {
		return 0
	}
	return t.materialized(id, now)
}

// HasDirect reports whether kw is a user-declared interest.
func (t *Table) HasDirect(kw string) bool {
	id, ok := t.in.Lookup(kw)
	return ok && t.direct.Has(int(id))
}

// SumWeights returns S: the sum of weights over the given keywords, the
// quantity ChitChat's routing rule compares between sender and receiver
// ("forward M to v if S_v > S_u").
func (t *Table) SumWeights(keywords []string) float64 {
	var s float64
	for _, kw := range keywords {
		s += t.Weight(kw)
	}
	return s
}

// SumWeightsIDs is the interned-ID fast path of SumWeights.
func (t *Table) SumWeightsIDs(ids []int32) float64 {
	now := t.clock.Now()
	var s float64
	for _, id := range ids {
		if t.present.Has(int(id)) {
			s += t.materialized(id, now)
		}
	}
	return s
}

// HasDirectAnyID reports whether any of the IDs is a direct interest — the
// ChitChat destination test.
func (t *Table) HasDirectAnyID(ids []int32) bool {
	for _, id := range ids {
		if t.direct.Has(int(id)) {
			return true
		}
	}
	return false
}

// MeanWeightIDs returns the average weight over the keywords' interned IDs
// (zero for an empty list). The relay-threshold prepayment compares this to
// 0.8.
func (t *Table) MeanWeightIDs(ids []int32) float64 {
	if len(ids) == 0 {
		return 0
	}
	return t.SumWeightsIDs(ids) / float64(len(ids))
}
