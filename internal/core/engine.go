package core

import (
	"context"
	"fmt"
	"time"

	"dtnsim/internal/behavior"
	"dtnsim/internal/bitset"
	"dtnsim/internal/enrich"
	"dtnsim/internal/ident"
	"dtnsim/internal/incentive"
	"dtnsim/internal/interest"
	"dtnsim/internal/message"
	"dtnsim/internal/mobility"
	"dtnsim/internal/obs"
	"dtnsim/internal/radio"
	"dtnsim/internal/report"
	"dtnsim/internal/routing"
	"dtnsim/internal/sim"
	"dtnsim/internal/trace"
	"dtnsim/internal/world"
)

// Engine runs one simulation: it owns the kernel, the world grid, every
// node, the contact set, and the incentive/reputation machinery layered on
// the routing rounds.
type Engine struct {
	cfg      Config
	runner   *sim.Runner
	grid     *world.Grid
	nodes    []*Node
	router   routing.Router
	spray    bool // the router is Spray-and-Wait: messages carry copy budgets
	calc     *incentive.Calculator
	ledger   *incentive.Ledger
	interner *interest.Interner

	// nextHandle is the handle the next minted message gets (see mint):
	// handles count from 0 per engine.
	nextHandle message.Handle

	// Contact lifecycle state (see DESIGN.md "Contact lifecycle arena &
	// merge-diff"). contactList is the creation-order iteration set the
	// exchange pass walks; liveSorted is the same contacts in canonical
	// pair order, diffed against each tick's sorted detect output with a
	// two-pointer merge — no per-pair map on the hot path. Trace replays
	// get their ups/downs from the cursor instead, so they keep a cold
	// pair index (tracePairs, nil otherwise). Contacts and transfers are
	// recycled through free-list arenas, so steady-state churn is
	// allocation-free.
	contactList  []*contact // creation order; the deterministic iteration set
	liveSorted   []*contact // the same contacts in canonical pair order
	liveScratch  []*contact // double buffer for the sorted-merge diff
	downsScratch []*contact // contacts lapsing this tick
	contactPool  []*contact
	transferPool []*transfer
	memoPool     []*routing.Memo
	tracePairs   map[world.Pair]*contact // replay-only pair index
	pairScratch  []world.Pair
	tickNo       uint64

	// Kinetic contact detection (see DESIGN.md "Kinetic contact
	// detection"): while every mobility model is speed-bounded, the engine
	// keeps a candidate pair list — every pair within radius+kinSkin at the
	// last grid scan — alive across ticks and filters it with exact
	// distance checks. kinTraveled accumulates the worst case closing
	// displacement 2·kinMaxSpeed·step per tick; once it exceeds kinSkin the
	// candidates can no longer be trusted and the grid is rescanned.
	// kinSkin is a quarter of the radio range; 0 disables the path (full
	// scan every tick) when a mobility model has no speed bound.
	kinSkin     float64
	kinMaxSpeed float64
	kinTraveled float64
	kinPrimed   bool
	kinCands    []world.Pair

	// Observability (see observability.go): the registry behind
	// Engine.Snapshot(), hot-path counter handles, the per-kind observer
	// dispatch table, and the run's wall-clock / heartbeat bookkeeping.
	reg             *obs.Registry
	ctrUps          *obs.Counter
	ctrUpsOpen      *obs.Counter
	ctrDowns        *obs.Counter
	ctrRebuild      *obs.Counter
	ctrSamples      *obs.Counter
	ctrSweep        *obs.Counter
	ctrEvict        *obs.Counter
	ctrWalks        *obs.Counter
	ctrWalkRebuilds *obs.Counter
	observers       []obs.Observer
	obsByKind       [][]obs.Observer
	nEvents         uint64
	started         bool
	wallStart       time.Time
	hbLast          time.Time
	// phaseMark is the last phase boundary (see chargePhase).
	phaseMark time.Time

	// offerKeys is sortOffers' reused key scratch.
	offerKeys []offerKey
	// sender is the view each routing call over a contact passes as u
	// (see senderView); one reused view keeps the call allocation-free.
	sender senderView

	// The run's outcome (see outcome.go): its counts, held by handle on
	// the registry, the per-priority ones indexed by priority level − 1;
	// then the state that is not a count. deliveredTo is the
	// first-deliverer record, indexed by message handle: the destinations
	// the message has reached, or nil before its first delivery, when the
	// set is allocated. latencySum adds up the first deliveries' latencies
	// and ratingSeries is the Figure 5.4 series.
	ctrCreated       *obs.Counter
	ctrDelivered     *obs.Counter
	ctrTransfers     *obs.Counter
	ctrRelay         *obs.Counter
	ctrAborted       *obs.Counter
	ctrAbortedQueued *obs.Counter
	ctrRefusedTokens *obs.Counter
	ctrRefusedRep    *obs.Counter
	ctrRefusedRadio  *obs.Counter
	ctrTags          *obs.Counter
	ctrTagsRelevant  *obs.Counter
	ctrCreatedBy     [3]*obs.Counter
	ctrDeliveredBy   [3]*obs.Counter
	deliveredTo      []bitset.Set
	latencySum       time.Duration
	ratingSeries     []RatingSample

	// nextSample is the deadline of the next Figure 5.4 rating sample (see
	// maybeSample).
	nextSample time.Duration

	// Mid-run control surface (see control.go): external goroutines enqueue
	// mutations; each tick drains them on the sim goroutine first thing.
	controls controlQueue

	honest    []ident.NodeID
	malicious []ident.NodeID

	workloadRNG *sim.RNG

	traceCursor *trace.Cursor
}

// NewEngine validates the configuration and builds the network.
func NewEngine(cfg Config, specs []NodeSpec) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: network needs at least one node")
	}
	calc, err := incentive.NewCalculator(cfg.Incentive)
	if err != nil {
		return nil, err
	}
	router := cfg.Router
	if router == nil {
		router = routing.NewChitChat()
	}
	e := &Engine{
		cfg:         cfg,
		router:      router,
		calc:        calc,
		ledger:      incentive.NewLedger(),
		interner:    interest.NewInterner(),
		nextSample:  cfg.RatingSampleInterval,
		workloadRNG: sim.NewRNG(cfg.Seed).Fork("workload"),
	}
	if e.runner, err = sim.NewRunner(cfg.Step, e.tick); err != nil {
		return nil, err
	}
	e.initObservability(cfg)
	if e.grid, err = world.NewGrid(cfg.Area, radio.Range); err != nil {
		return nil, err
	}
	_, e.spray = router.(*routing.SprayAndWait)
	root := sim.NewRNG(cfg.Seed)
	// The nodes live in one slab, so the per-tick walk over them in
	// moveNodes reads contiguous memory. Allocated one by one, they
	// interleave with any per-node object of their size class; when the
	// interest tables shared it, crowd20k's move phase ran 40 % slower.
	slab := make([]Node, len(specs))
	for i, spec := range specs {
		id := ident.NodeID(i)
		nodeRNG := root.Fork("node-" + id.String())
		if spec.Mobility == nil {
			walker, werr := mobility.NewRandomWaypoint(mobility.DefaultPedestrian(cfg.Area), nodeRNG.Fork("walk"))
			if werr != nil {
				return nil, werr
			}
			spec.Mobility = walker
		}
		if spec.Tagger == nil {
			spec.Tagger = e.defaultTagger(spec.Profile)
		}
		// Interest tables decay lazily against the kernel clock: reads
		// materialize the time-decayed weight instead of relying on eager
		// per-round sweeps (DESIGN.md "Lazy-decay interest tables").
		n := &slab[i]
		var nerr error
		if *n, nerr = newNode(id, spec, cfg, nodeRNG, e.interner, e.runner.Clock()); nerr != nil {
			return nil, nerr
		}
		e.nodes = append(e.nodes, n)
		n.lastPos = n.model.Position()
		e.grid.Upsert(id, n.lastPos)
		if spec.Profile.Kind == behavior.Malicious {
			e.malicious = append(e.malicious, id)
		} else {
			e.honest = append(e.honest, id)
		}
	}
	e.kinSkin = radio.Range / 4
	for _, n := range e.nodes {
		sb, ok := n.model.(mobility.SpeedBounded)
		if !ok {
			// One unbounded model poisons the displacement bound for every
			// pair it could participate in; fall back wholesale.
			e.kinSkin = 0
			break
		}
		if s := sb.MaxSpeed(); s > e.kinMaxSpeed {
			e.kinMaxSpeed = s
		}
	}
	if cfg.ContactTrace != nil {
		if int(cfg.ContactTrace.MaxNode()) >= len(e.nodes) {
			return nil, fmt.Errorf("core: contact trace references node %v but the network has %d nodes",
				cfg.ContactTrace.MaxNode(), len(e.nodes))
		}
		e.traceCursor = trace.NewCursor(cfg.ContactTrace)
		e.tracePairs = make(map[world.Pair]*contact)
	}
	e.scheduleWorkload()
	return e, nil
}

// mint creates a message at n: the one place messages come from. It gives
// the message the engine's next handle and n's next ID, the ground truth,
// the source's tags and the spray budget, buffers it, and records its
// creation. A message the buffer refuses is never created.
func (e *Engine) mint(n *Node, now time.Duration, size int64, prio message.Priority, quality float64, truth, tags []string) (*message.Message, error) {
	m, err := message.New(n.nextMessageID(), e.nextHandle, n.id, n.role, now, size, prio, quality)
	if err != nil {
		return nil, err
	}
	e.nextHandle++
	m.TrueKeywords = truth
	for _, kw := range tags {
		m.Annotate(kw, n.id, now)
	}
	if e.spray {
		m.CopiesLeft = routing.SprayCopies
	}
	if err := n.buf.Add(m); err != nil {
		return nil, err
	}
	e.ctrCreated.Inc()
	e.ctrCreatedBy[m.Priority-1].Inc()
	e.record(report.Event{At: now, Kind: report.MessageCreated, A: n.id, Msg: m.ID})
	return m, nil
}

// defaultTagger picks an enrichment behaviour matching the node's
// disposition: malicious nodes forge tags, everyone else occasionally adds
// genuine supplementary keywords.
func (e *Engine) defaultTagger(p behavior.Profile) enrich.Tagger {
	if !e.cfg.enrichmentActive() || e.cfg.Workload.Vocab == nil {
		return enrich.NopTagger{}
	}
	if p.Kind == behavior.Malicious {
		return &enrich.MaliciousTagger{Vocab: e.cfg.Workload.Vocab, TagProb: 0.5, MaxTags: 3}
	}
	return &enrich.HonestTagger{KnowProb: 0.3, MaxTags: 2}
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Nodes returns the network's nodes in ID order.
func (e *Engine) Nodes() []*Node {
	out := make([]*Node, len(e.nodes))
	copy(out, e.nodes)
	return out
}

// Node returns one node, or nil for an unknown ID.
func (e *Engine) Node(id ident.NodeID) *Node {
	if int(id) < 0 || int(id) >= len(e.nodes) {
		return nil
	}
	return e.nodes[id]
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.runner.Clock().Now() }

// Run executes the configured duration and returns the run result. It
// fires RunStart on the first call that advances time and RunEnd (with the
// final snapshot) when the configured duration completes.
func (e *Engine) Run(ctx context.Context) (Result, error) {
	e.startRun()
	if _, err := e.runner.Run(ctx, e.cfg.Duration); err != nil {
		return Result{}, err
	}
	res := e.Result()
	e.endRun()
	return res, nil
}

// RunFor advances the simulation by d without producing a final result;
// examples use it to interleave narration with simulation. It funnels
// through the runner's single stepping loop, so cancellation and step
// accounting behave identically to Run.
func (e *Engine) RunFor(ctx context.Context, d time.Duration) error {
	e.startRun()
	_, err := e.runner.RunUntil(ctx, e.runner.Clock().Now()+d)
	return err
}

// tick is the per-step pipeline, and the only thing the runner calls after
// firing the step's due workload arrivals: drain the control mailbox, move,
// detect contacts, run the contact pass (each contact's due exchange and
// gossip rounds, then its transfer progression), and end with the
// heartbeat and rating-sample checks, so both observe a completed step.
// Periodic work is not scheduled on the runner: the tick checks its own
// deadlines.
//
// Each stage closes its phase on the registry's timers (obs.PhaseMove
// here; updateContacts and progressContacts close their own).
func (e *Engine) tick(now time.Duration) {
	e.drainControls(now)
	e.tickNo++
	// The runner's bookkeeping since the last boundary (clock advance,
	// the workload arrivals) and the control drain are event dispatch.
	e.chargePhase(obs.PhaseEvents)
	if e.traceCursor == nil {
		// Trace replays define connectivity directly; geometry is moot.
		e.moveNodes()
	}
	e.chargePhase(obs.PhaseMove)
	e.updateContacts(now)
	e.progressContacts(now)
	e.maybeHeartbeat()
	e.maybeSample(now)
}

// nextDeadline advances a periodic deadline by whole intervals until it
// lands after now, keeping the schedule on the interval grid however late
// the firing tick was, without queueing catch-up firings after a stall.
func nextDeadline(due, interval, now time.Duration) time.Duration {
	due += interval
	if due <= now {
		due += ((now-due)/interval + 1) * interval
	}
	return due
}

// moveNodes advances every mobility model in node-index order and folds
// the new positions into the grid. A model that returns the position it
// returned last tick (stationary nodes, paused waypoints) skips the upsert
// outright: the grid state cannot change, and the skip short-circuits the
// cell hash and dense-slice writes on exactly the scenarios kinetic
// detection targets.
func (e *Engine) moveNodes() {
	step := e.runner.Clock().Step()
	for _, n := range e.nodes {
		if p := n.model.Advance(step); p != n.lastPos {
			n.lastPos = p
			e.grid.Upsert(n.id, p)
		}
	}
}

// detectPairs computes the in-range pair set. With kinetic detection active
// it filters the standing candidate list — rescanning the grid only when
// accumulated worst-case displacement has eaten the skin — and otherwise
// falls back to the full per-tick scan. Either path produces the pair set
// byte-identical to Grid.Pairs: the candidate list is a sorted conservative
// superset, and filtering preserves order, so no re-sort is needed between
// rebuilds. The per-tick filter cost is one InRange per candidate, near
// O(contacts) in sparse DTN scenarios.
func (e *Engine) detectPairs(dst []world.Pair) []world.Pair {
	r := radio.Range
	if e.kinSkin <= 0 {
		return e.grid.Pairs(dst, r)
	}
	// Movement already happened this tick; account for it before trusting
	// the candidates. Closing speed is at most 2·maxSpeed (both endpoints
	// heading straight at each other), so a pair farther than
	// radius+kinSkin at the last scan is still out of range while
	// kinTraveled ≤ kinSkin. All-stationary networks never re-accumulate,
	// so they scan exactly once.
	e.kinTraveled += 2 * e.kinMaxSpeed * e.runner.Clock().Step().Seconds()
	if !e.kinPrimed || e.kinTraveled > e.kinSkin {
		e.kinCands = e.grid.Candidates(e.kinCands[:0], r, e.kinSkin)
		e.kinTraveled = 0
		e.kinPrimed = true
		e.ctrRebuild.Inc()
	}
	for _, p := range e.kinCands {
		if e.grid.InRange(p.Lo, p.Hi, r) {
			dst = append(dst, p)
		}
	}
	return dst
}

// updateContacts diffs the in-range pair set against the live contact set,
// creating and tearing down contacts. The live set is carried tick to tick
// as a pair-sorted slice (liveSorted) parallel to the creation-order
// contactList, and detectPairs emits a canonically sorted pair list — both
// connectivity sources (full grid scan, kinetic filter) preserve that
// invariant — so the diff is a two-pointer sorted merge: no per-pair map
// lookups, no per-contact tick stamps, and no full-list tombstone sweep.
// Raises happen mid-merge in pair order (exactly the order the historical
// pair-list walk produced) and lapses are deferred to teardownContacts,
// which replays them in creation order — the order the historical
// contactList sweep used — so runs stay byte-identical.
//
// In trace mode the up/down transitions come from the replay cursor instead
// of the spatial grid (the whole replay advance is attributed to the
// contacts phase; there is no geometric detection).
func (e *Engine) updateContacts(now time.Duration) {
	if e.traceCursor != nil {
		e.updateTraceContacts(now)
		e.chargePhase(obs.PhaseContacts)
		return
	}
	e.pairScratch = e.detectPairs(e.pairScratch[:0])
	e.chargePhase(obs.PhaseDetect)
	pairs := e.pairScratch
	old := e.liveSorted
	next := e.liveScratch[:0]
	downs := e.downsScratch[:0]
	i, j := 0, 0
	for i < len(pairs) && j < len(old) {
		c := old[j]
		switch {
		case pairs[i] == c.pair:
			next = append(next, c)
			i++
			j++
		case pairs[i].Less(c.pair):
			next = append(next, e.contactUp(pairs[i], now))
			i++
		default:
			downs = append(downs, c)
			j++
		}
	}
	for ; i < len(pairs); i++ {
		next = append(next, e.contactUp(pairs[i], now))
	}
	for ; j < len(old); j++ {
		downs = append(downs, old[j])
	}
	e.liveSorted, e.liveScratch = next, old
	e.downsScratch = downs
	if len(downs) > 0 {
		e.teardownContacts(downs)
	}
	e.chargePhase(obs.PhaseContacts)
}

// updateTraceContacts advances the replay cursor and mirrors its up/down
// transitions onto the live contact set. Teardowns run before raises: over
// a coarse step a churny trace can end one encounter of a pair and begin
// another within the same advance window, and the new encounter must start
// fresh (radio coin reflipped, exchange schedule restarted) instead of
// being swallowed by the dying one. Replay keeps the cold tracePairs index
// because the cursor addresses contacts by pair; the grid paths never
// touch it.
func (e *Engine) updateTraceContacts(now time.Duration) {
	up, down := e.traceCursor.AdvanceTo(now)
	if len(down) > 0 {
		downs := e.downsScratch[:0]
		for _, ct := range down {
			if c, ok := e.tracePairs[world.Pair{Lo: ct.A, Hi: ct.B}]; ok {
				downs = append(downs, c)
			}
		}
		e.downsScratch = downs
		if len(downs) > 0 {
			e.teardownContacts(downs)
		}
	}
	for _, ct := range up {
		p := world.Pair{Lo: ct.A, Hi: ct.B}
		if _, ok := e.tracePairs[p]; ok {
			continue
		}
		e.contactUp(p, now)
	}
}

// acquireContact takes a contact from the arena free list, or allocates the
// arena's first-of-a-kind. Recycled contacts keep their transfer-queue
// backing array from the previous life and nothing else.
func (e *Engine) acquireContact() *contact {
	if n := len(e.contactPool); n > 0 {
		c := e.contactPool[n-1]
		e.contactPool[n-1] = nil
		e.contactPool = e.contactPool[:n-1]
		return c
	}
	return &contact{}
}

// releaseContact returns a torn-down contact to the arena. The caller
// (teardownContacts) has already run contactDown, so transfers are
// released and the queue reset; the contact's routing memos go back to
// their pool, emptied but with their arrays, and everything but the warm
// queue array is zeroed so the next life starts clean.
func (e *Engine) releaseContact(c *contact) {
	for _, m := range c.memos {
		if m != nil {
			m.Reset()
			e.memoPool = append(e.memoPool, m)
		}
	}
	*c = contact{queue: c.queue}
	e.contactPool = append(e.contactPool, c)
}

// memoFor returns the routing memo of c's direction from u, taking one
// from the pool, or allocating it, on that direction's first routing call.
// A memo lives outside the contact, so the many contacts that never route
// (closed ones, and senders with empty buffers) carry only a nil pointer.
func (e *Engine) memoFor(c *contact, u *Node) *routing.Memo {
	d := 0
	if u != c.a {
		d = 1
	}
	if c.memos[d] == nil {
		if n := len(e.memoPool); n > 0 {
			c.memos[d] = e.memoPool[n-1]
			e.memoPool[n-1] = nil
			e.memoPool = e.memoPool[:n-1]
		} else {
			c.memos[d] = new(routing.Memo)
		}
	}
	return c.memos[d]
}

// acquireTransfer takes a transfer from the arena free list.
func (e *Engine) acquireTransfer() *transfer {
	if n := len(e.transferPool); n > 0 {
		t := e.transferPool[n-1]
		e.transferPool[n-1] = nil
		e.transferPool = e.transferPool[:n-1]
		return t
	}
	return &transfer{}
}

// releaseTransfer returns a finished, refused, invalidated, or aborted
// transfer to the arena. Callers must hold the only remaining reference.
func (e *Engine) releaseTransfer(t *transfer) {
	*t = transfer{}
	e.transferPool = append(e.transferPool, t)
}

func (e *Engine) contactUp(p world.Pair, now time.Duration) *contact {
	e.ctrUps.Inc()
	a, b := e.nodes[p.Lo], e.nodes[p.Hi]
	c := e.acquireContact()
	c.pair, c.a, c.b = p, a, b
	// The selfish model: "a selfish node has its communication medium open
	// one out of ten times when it encounters another node". A node whose
	// radio energy budget is exhausted cannot open at all.
	if a.batteryDead(e.cfg.BatteryJoules) || b.batteryDead(e.cfg.BatteryJoules) {
		c.open = false
	} else {
		c.open = a.profile.RadioOpen(a.rng) && b.profile.RadioOpen(b.rng)
	}
	c.listIdx = len(e.contactList)
	e.contactList = append(e.contactList, c)
	if e.tracePairs != nil {
		e.tracePairs[p] = c
	}
	if !c.open {
		e.ctrRefusedRadio.Inc()
		return c
	}
	e.ctrUpsOpen.Inc()
	a.peerTables = append(a.peerTables, b.table)
	b.peerTables = append(b.peerTables, a.table)
	if e.cfg.reputationActive() {
		e.gossipReputation(a, b)
		e.gossipReputation(b, a)
	}
	if aware, ok := e.router.(routing.ContactAware); ok {
		aware.OnContact(a, b, now)
	}
	e.record(report.Event{At: now, Kind: report.ContactUp, A: a.id, B: b.id})
	// The contact-up round also starts the periodic exchange schedule (see
	// progressContacts); the first periodic gossip is due gossipInterval on.
	e.runExchange(c, now, e.runner.Clock().Step())
	c.nextGossip = now + gossipInterval
	return c
}

// teardownContacts tears down a batch of lapsed contacts in creation
// order — byte-identical to the historical full-list sweep — then compacts
// contactList from the first vacated slot and releases the dead contacts to
// the arena. The downs slice arrives in arbitrary (pair or cursor) order;
// sorting the handful of lapses by list index is what preserves the
// historical teardown order without stamping or sweeping the live set.
// Callers have already excluded the lapsed contacts from liveSorted (the
// tick's merge diff does; trace replay never populates it).
func (e *Engine) teardownContacts(downs []*contact) {
	// Insertion sort by creation order: down batches are tiny (contact
	// churn per tick), and this avoids a sort.Slice closure allocation.
	for i := 1; i < len(downs); i++ {
		for j := i; j > 0 && downs[j].listIdx < downs[j-1].listIdx; j-- {
			downs[j], downs[j-1] = downs[j-1], downs[j]
		}
	}
	for _, c := range downs {
		e.contactDown(c)
	}
	list := e.contactList
	w := downs[0].listIdx
	for r := w; r < len(list); r++ {
		c := list[r]
		if c.dead {
			continue
		}
		c.listIdx = w
		list[w] = c
		w++
	}
	for r := w; r < len(list); r++ {
		list[r] = nil
	}
	e.contactList = list[:w]
	for _, c := range downs {
		e.releaseContact(c)
	}
}

func (e *Engine) contactDown(c *contact) {
	c.dead = true
	if e.tracePairs != nil {
		delete(e.tracePairs, c.pair)
	}
	e.ctrDowns.Inc()
	if !c.open {
		return
	}
	now := e.runner.Clock().Now()
	e.record(report.Event{At: now, Kind: report.ContactDown, A: c.a.id, B: c.b.id})
	if c.active != nil {
		e.abortTransfer(c.active, now)
		e.releaseTransfer(c.active)
		c.active = nil
	}
	// Queued-but-unstarted transfers die with the contact too; count them
	// so the aborted tally and the event trace reflect all abandoned work,
	// not just the one handover that was mid-flight, and apart on
	// aborted_queued.
	for _, t := range c.pending() {
		e.abortTransfer(t, now)
		e.releaseTransfer(t)
	}
	e.ctrAbortedQueued.Add(uint64(len(c.pending())))
	c.resetQueue()
	c.a.peerTables = removeTable(c.a.peerTables, c.b.table)
	c.b.peerTables = removeTable(c.b.peerTables, c.a.table)
}

// abortTransfer records one transfer abandoned by a contact teardown.
func (e *Engine) abortTransfer(t *transfer, now time.Duration) {
	e.ctrAborted.Inc()
	e.record(report.Event{
		At: now, Kind: report.TransferAborted,
		A: t.from.id, B: t.to.id, Msg: t.msg.ID,
	})
}

// removeTable swap-removes t from a node's peer-table list.
func removeTable(list []*interest.Table, t *interest.Table) []*interest.Table {
	for i, x := range list {
		if x == t {
			last := len(list) - 1
			list[i] = list[last]
			// Nil the vacated tail slot: the list is reused across the
			// run, and a dangling pointer there would pin a table the
			// node is no longer connected to.
			list[last] = nil
			return list[:last]
		}
	}
	return list
}

// progressContacts runs the contact pass: it walks the live contacts in
// creation order and, for each open one, runs the exchange and gossip
// rounds whose deadlines have come, then advances its transfer. Contacts
// torn down this tick have already left contactList, so a same-tick
// teardown preempts a due round. A round re-arms from the tick that ran
// it, not from its deadline, so a step that does not divide the interval
// drifts the schedule later (golden_step7s.golden pins this).
func (e *Engine) progressContacts(now time.Duration) {
	for _, c := range e.contactList {
		if !c.open {
			continue
		}
		if grown := now - c.exchangedAt; grown >= exchangeInterval {
			e.runExchange(c, now, grown)
		}
		if now >= c.nextGossip && e.cfg.reputationActive() {
			e.gossipReputation(c.a, c.b)
			e.gossipReputation(c.b, c.a)
			c.nextGossip = now + gossipInterval
		}
		e.progressTransfer(c, now)
	}
	e.chargePhase(obs.PhaseExchange)
}
