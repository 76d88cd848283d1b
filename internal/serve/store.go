package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/experiment"
	"dtnsim/internal/obs"
	"dtnsim/internal/report"
	"dtnsim/internal/scenario"
)

// State is a run's lifecycle position.
type State string

// Run lifecycle: Created (configurable) → Queued (waiting for an
// execution slot) → Running → one of Done / Failed / Cancelled.
const (
	StateCreated   State = "created"
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether the run has finished, however it ended.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Errors the HTTP layer maps onto status codes.
var (
	ErrNotFound   = errors.New("serve: run not found")
	ErrConflict   = errors.New("serve: operation invalid in this run state")
	ErrNoTrace    = errors.New("serve: run was created without trace capture")
	ErrNotStarted = errors.New("serve: run has not been started")
)

// defaultHeartbeat is applied when the spec leaves Heartbeat unset, so an
// HTTP-created run streams live snapshots out of the box. Heartbeats are
// wall-clock-driven and never perturb the simulation, so this default
// cannot affect results or traces.
const defaultHeartbeat = time.Second

// Run is one managed simulation: the canonical spec, its lifecycle
// state, the SSE hub, and — once started — the engine and its handle.
type Run struct {
	ID  string
	seq int
	hub *hub

	mu        sync.Mutex
	state     State
	spec      scenario.Spec
	trace     bool
	tracePath string
	eng       *core.Engine
	cancel    context.CancelFunc
	deleted   bool
	err       error
	result    *core.Result
	final     *obs.Snapshot

	done chan struct{} // closed when the run goroutine has fully finished
}

// Store is the concurrent run registry. Execution rides on an
// experiment.Pool, so at most maxConcurrent simulations execute at once
// — the same bounded work-stealing discipline the batch sweeps use —
// and further started runs wait in StateQueued until a slot frees.
type Store struct {
	pool *experiment.Pool
	dir  string // spool directory for trace captures

	mu     sync.Mutex
	runs   map[string]*Run
	nextID int
}

// NewStore builds a store executing at most maxConcurrent runs at once
// (minimum 1). dir is where trace spools are written; empty means the
// OS temp directory.
func NewStore(maxConcurrent int, dir string) *Store {
	if dir == "" {
		dir = os.TempDir()
	}
	return &Store{
		pool: experiment.NewPool(maxConcurrent),
		dir:  dir,
		runs: make(map[string]*Run),
	}
}

// Close cancels every active run, waits for their goroutines to land,
// and releases the pool workers.
func (s *Store) Close() {
	s.mu.Lock()
	runs := make([]*Run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	for _, r := range runs {
		r.Cancel()
	}
	for _, r := range runs {
		r.mu.Lock()
		started := r.done != nil
		r.mu.Unlock()
		if started {
			<-r.done
		}
	}
	s.pool.Close()
}

// Create registers a new run in StateCreated. The spec must validate;
// withTrace additionally spools the run's full JSONL event trace for
// later download. An unset Heartbeat gets the serving default so the
// SSE stream is live without explicit configuration.
func (s *Store) Create(spec scenario.Spec, withTrace bool) (*Run, error) {
	if spec.Heartbeat <= 0 {
		spec.Heartbeat = defaultHeartbeat
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	r := &Run{
		ID:    fmt.Sprintf("r%d", s.nextID),
		seq:   s.nextID,
		hub:   newHub(),
		state: StateCreated,
		spec:  spec,
		trace: withTrace,
	}
	s.runs[r.ID] = r
	return r, nil
}

// Get looks a run up by ID.
func (s *Store) Get(id string) (*Run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return r, nil
}

// List returns every registered run in creation order.
func (s *Store) List() []*Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Run, 0, len(s.runs))
	for _, r := range s.runs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Delete cancels the run if active, removes it from the registry, and
// arranges for its trace spool to be removed once the run goroutine has
// landed. Deleting an unknown ID is ErrNotFound; deleting twice too.
func (s *Store) Delete(id string) error {
	s.mu.Lock()
	r, ok := s.runs[id]
	if ok {
		delete(s.runs, id)
	}
	s.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	// Mark deleted before reading cancel: a Start racing this call either
	// sees the mark and aborts, or completed first and left a cancel func
	// here to fire.
	r.mu.Lock()
	r.deleted = true
	cancel := r.cancel
	path, started := r.tracePath, r.done
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if started == nil {
		// Never started: nothing spooled, nothing running.
		return nil
	}
	go func() {
		<-started
		if path != "" {
			os.Remove(path)
		}
	}()
	return nil
}

// Configure replaces the run's spec. Only legal before Start.
func (r *Run) Configure(spec scenario.Spec) error {
	if spec.Heartbeat <= 0 {
		spec.Heartbeat = defaultHeartbeat
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StateCreated {
		return fmt.Errorf("%w: configure requires state %q, run is %q", ErrConflict, StateCreated, r.state)
	}
	r.spec = spec
	return nil
}

// Spec returns the run's current spec.
func (r *Run) Spec() scenario.Spec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spec
}

// start transitions Created → Queued, builds the engine, and hands the
// run to the pool. Engine-construction errors surface synchronously and
// leave the run in StateCreated so the spec can be fixed and retried.
func (s *Store) start(r *Run) error {
	r.mu.Lock()
	if r.state != StateCreated {
		state := r.state
		r.mu.Unlock()
		return fmt.Errorf("%w: start requires state %q, run is %q", ErrConflict, StateCreated, state)
	}
	spec := r.spec
	r.mu.Unlock()

	cfg, specs, err := scenario.Build(spec)
	if err != nil {
		return err
	}
	var sp *spool
	if r.trace {
		f, err := os.CreateTemp(s.dir, "dtnserved-trace-*.jsonl")
		if err != nil {
			return err
		}
		sp = &spool{file: f, w: report.NewJSONLWriter(f)}
		// The trace recorder is the first observer, exactly where the
		// dtnsim CLI appends its -trace writer: the spooled JSONL is
		// byte-identical to a CLI run of the same spec.
		cfg.Observers = append(cfg.Observers, obs.Record(sp.w))
	}
	cfg.Observers = append(cfg.Observers, r.hub)
	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		sp.discard()
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	r.mu.Lock()
	if r.state != StateCreated || r.deleted { // lost a start/delete race
		r.mu.Unlock()
		cancel()
		sp.discard()
		if r.deleted {
			return ErrNotFound
		}
		return fmt.Errorf("%w: run already started", ErrConflict)
	}
	r.state = StateQueued
	r.eng = eng
	r.cancel = cancel
	r.done = make(chan struct{})
	if sp != nil {
		r.tracePath = sp.file.Name()
	}
	r.mu.Unlock()

	go s.execute(r, ctx, eng, spec, sp)
	return nil
}

// Start is the exported face of start.
func (s *Store) Start(id string) error {
	r, err := s.Get(id)
	if err != nil {
		return err
	}
	return s.start(r)
}

// execute owns the run goroutine: it waits for a pool slot, drives the
// engine to completion or cancellation through a core.RunHandle, closes
// the trace spool, records the outcome, and finishes the SSE stream. A
// spool that failed to write or close fails a run that otherwise
// completed.
func (s *Store) execute(r *Run, ctx context.Context, eng *core.Engine, spec scenario.Spec, sp *spool) {
	defer close(r.done)
	simSeconds := spec.Duration.Seconds()
	if simSeconds <= 0 {
		simSeconds = core.DefaultConfig().Duration.Seconds()
	}
	err := s.pool.Run(ctx, simSeconds, func(ctx context.Context) error {
		r.mu.Lock()
		r.state = StateRunning
		r.mu.Unlock()
		h := core.StartRun(ctx, eng)
		<-h.Done()
		res, snap := h.Result(), h.Snapshot()
		r.mu.Lock()
		r.result, r.final = &res, &snap
		r.mu.Unlock()
		return h.Err()
	})
	if sp != nil {
		if serr := sp.close(); serr != nil && err == nil {
			err = fmt.Errorf("serve: trace spool: %w", serr)
		}
	}

	r.mu.Lock()
	switch {
	case err == nil:
		r.state = StateDone
	case errors.Is(err, context.Canceled):
		r.state = StateCancelled
	default:
		r.state = StateFailed
	}
	r.err = err
	state := r.state
	removeTrace := r.deleted
	r.mu.Unlock()

	r.hub.finish(string(state))
	if sp != nil && removeTrace {
		os.Remove(sp.file.Name())
	}
}

// spool is a run's trace capture: the temp file and the JSONL writer
// recording into it.
type spool struct {
	file *os.File
	w    *report.JSONLWriter
}

// close closes the file and returns the first write error, else the close
// error.
func (sp *spool) close() error {
	err := sp.w.Err()
	if cerr := sp.file.Close(); err == nil {
		err = cerr
	}
	return err
}

// discard closes and removes a spool whose run never started; nil is a
// no-op.
func (sp *spool) discard() {
	if sp != nil {
		sp.file.Close()
		os.Remove(sp.file.Name())
	}
}

// Cancel stops the run. A queued run never executes (its slot request is
// withdrawn); a running one stops at the next step boundary. Cancelling
// a created or finished run is a no-op.
func (r *Run) Cancel() {
	r.mu.Lock()
	cancel := r.cancel
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Done returns a channel closed when the run goroutine has fully landed,
// or nil if the run was never started.
func (r *Run) Done() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done
}

// SetWorkloadMeanInterval retargets the running simulation's message
// generation rate through the engine's mid-run control queue.
func (r *Run) SetWorkloadMeanInterval(d time.Duration) error {
	r.mu.Lock()
	eng, state := r.eng, r.state
	r.mu.Unlock()
	if eng == nil {
		return ErrNotStarted
	}
	if state.terminal() {
		return fmt.Errorf("%w: run is %q", ErrConflict, state)
	}
	if err := eng.SetWorkloadMeanInterval(d); err != nil {
		return err
	}
	r.mu.Lock()
	r.spec.MeanMessageInterval = d
	r.mu.Unlock()
	return nil
}

// TracePath returns the spooled JSONL trace for download. Only valid
// once the run is terminal (the spool is complete and closed).
func (r *Run) TracePath() (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.trace {
		return "", ErrNoTrace
	}
	if !r.state.terminal() {
		return "", fmt.Errorf("%w: trace export requires a finished run, run is %q", ErrConflict, r.state)
	}
	if r.tracePath == "" {
		return "", ErrNotStarted
	}
	return r.tracePath, nil
}

// Status is the JSON view of a run.
type Status struct {
	ID            string          `json:"id"`
	State         State           `json:"state"`
	Spec          scenario.Spec   `json:"spec"`
	Trace         bool            `json:"trace"`
	DroppedFrames uint64          `json:"serve_dropped_frames"`
	Error         string          `json:"error,omitempty"`
	Snapshot      json.RawMessage `json:"snapshot,omitempty"`
	Result        *core.Result    `json:"result,omitempty"`
	Final         *obs.Snapshot   `json:"final_snapshot,omitempty"`
}

// Status summarises the run for the HTTP API. For a live run the
// snapshot is the hub's latest heartbeat — the engine itself is never
// touched from outside its own goroutine.
func (r *Run) Status() Status {
	r.mu.Lock()
	st := Status{
		ID:     r.ID,
		State:  r.state,
		Spec:   r.spec,
		Trace:  r.trace,
		Result: r.result,
		Final:  r.final,
	}
	if r.err != nil {
		st.Error = r.err.Error()
	}
	r.mu.Unlock()
	st.DroppedFrames = r.hub.Dropped()
	st.Snapshot = r.hub.LastSnapshot()
	return st
}
