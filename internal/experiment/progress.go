package experiment

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress tracks the sweep scheduler's throughput: jobs submitted and
// completed, and simulated seconds retired per wall-clock second. It is the
// opt-in backend of dtnexp's -progress flag; attach one to a Pool with
// SetProgress and print snapshots on an interval with Start.
type Progress struct {
	mu         sync.Mutex
	total      int
	done       int
	simSeconds float64
	start      time.Time
}

// NewProgress returns a reporter whose wall clock starts now.
func NewProgress() *Progress {
	return &Progress{start: time.Now()}
}

func (pr *Progress) add(n int) {
	pr.mu.Lock()
	pr.total += n
	pr.mu.Unlock()
}

func (pr *Progress) complete(simSeconds float64) {
	pr.mu.Lock()
	pr.done++
	pr.simSeconds += simSeconds
	pr.mu.Unlock()
}

// advance credits partial simulated progress from a still-running job (the
// heartbeat live feed); negative deltas take back credit a completing run
// re-reports through complete.
func (pr *Progress) advance(simSeconds float64) {
	pr.mu.Lock()
	pr.simSeconds += simSeconds
	pr.mu.Unlock()
}

// Snapshot is one instant of the counters.
type Snapshot struct {
	// Total and Done count jobs submitted so far and finished. Total grows
	// as the suite streams new sweeps into the pool, so the ETA covers the
	// work queued so far, not experiments yet to be submitted.
	Total, Done int
	// SimSeconds is the simulated time the jobs ran: the full span of
	// every job that succeeded, plus heartbeat credit from runs still
	// going or cancelled. A failed or cancelled job credits no span.
	SimSeconds float64
	// Elapsed is wall-clock time since NewProgress.
	Elapsed time.Duration
}

// Snapshot returns the current counters.
func (pr *Progress) Snapshot() Snapshot {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return Snapshot{
		Total:      pr.total,
		Done:       pr.done,
		SimSeconds: pr.simSeconds,
		Elapsed:    time.Since(pr.start),
	}
}

// Throughput is simulated seconds retired per wall-clock second.
func (s Snapshot) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return s.SimSeconds / s.Elapsed.Seconds()
}

// ETA estimates the wall-clock time to drain the currently queued jobs at
// the observed per-job rate. ok is false until at least one job finished.
func (s Snapshot) ETA() (eta time.Duration, ok bool) {
	if s.Done == 0 || s.Elapsed <= 0 {
		return 0, false
	}
	perJob := s.Elapsed / time.Duration(s.Done)
	return perJob * time.Duration(s.Total-s.Done), true
}

// String renders one status line, e.g.
//
//	jobs 12/88 (13.6%) | 5321 sim-s/wall-s | ETA 2m30s
func (s Snapshot) String() string {
	pct := 0.0
	if s.Total > 0 {
		pct = 100 * float64(s.Done) / float64(s.Total)
	}
	line := fmt.Sprintf("jobs %d/%d (%.1f%%) | %.0f sim-s/wall-s", s.Done, s.Total, pct, s.Throughput())
	if eta, ok := s.ETA(); ok && s.Done < s.Total {
		line += " | ETA " + eta.Round(time.Second).String()
	}
	return line
}

// Start prints a status line to w every interval until the returned stop
// function is called; stop prints one final line and returns.
func (pr *Progress) Start(w io.Writer, every time.Duration) (stop func()) {
	if every <= 0 {
		every = time.Second
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				fmt.Fprintln(w, pr.Snapshot())
			case <-quit:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(quit)
			<-done
			fmt.Fprintln(w, pr.Snapshot())
		})
	}
}
