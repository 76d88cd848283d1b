package core

import (
	"time"

	"dtnsim/internal/obs"
)

// maybeSample takes the Figure 5.4 sample once the tick reaches its
// deadline. The tick calls it last, so the sample sees the step's completed
// state; it is stamped with the deadline itself, because the firing step
// lands later when the step does not divide the interval, and nextDeadline
// keeps the schedule on the interval grid.
func (e *Engine) maybeSample(now time.Duration) {
	if e.cfg.RatingSampleInterval <= 0 || now < e.nextSample {
		return
	}
	e.sampleMaliciousRating(e.nextSample)
	e.nextSample = nextDeadline(e.nextSample, e.cfg.RatingSampleInterval, now)
	e.chargePhase(obs.PhaseEvents)
}

// sampleMaliciousRating records one Figure 5.4 point: the average, over all
// non-malicious nodes, of their current rating of every malicious node
// ("Average rating of malicious nodes in the non-malicious nodes is a
// factor which can explain the overall capability of the developed
// Distributed Reputation Model").
func (e *Engine) sampleMaliciousRating(now time.Duration) {
	if len(e.malicious) == 0 || len(e.honest) == 0 {
		return
	}
	var sum float64
	var count int
	for _, h := range e.honest {
		rep := e.nodes[h].rep
		for _, m := range e.malicious {
			sum += rep.Rating(m)
			count++
		}
	}
	if count == 0 {
		return
	}
	e.ctrSamples.Inc()
	e.ratingSeries = append(e.ratingSeries, RatingSample{At: now, MeanMaliciousRating: sum / float64(count)})
}
