package core

import (
	"fmt"
	"time"

	"dtnsim/internal/behavior"
	"dtnsim/internal/enrich"
	"dtnsim/internal/message"
)

// MessageClass assigns a node to one of the Figure 5.6 generator
// populations ("50% of the nodes generated high quality larger size and
// high priority messages, 30% created medium quality and the rest produced
// low quality").
type MessageClass int

// Generator classes. ClassMixed draws priority and quality independently
// from the workload's distributions (the default for Figures 5.1–5.5).
const (
	ClassMixed MessageClass = iota
	ClassHighEnd
	ClassMidRange
	ClassLowEnd
)

// String names the class.
func (c MessageClass) String() string {
	switch c {
	case ClassMixed:
		return "mixed"
	case ClassHighEnd:
		return "high-end"
	case ClassMidRange:
		return "mid-range"
	case ClassLowEnd:
		return "low-end"
	default:
		return fmt.Sprintf("class-%d", int(c))
	}
}

// WorkloadConfig drives message generation. Each node originates messages
// as a Poisson process with the given mean interval; content keywords are
// sampled from the vocabulary.
type WorkloadConfig struct {
	// Vocab is the keyword pool (Table 5.1: 200 keywords). Required when
	// MeanInterval > 0.
	Vocab *enrich.Vocabulary
	// MeanInterval is the per-node mean time between originated messages;
	// zero disables generation (the examples drive messages manually).
	MeanInterval time.Duration
	// MessageSize is the base payload size (Table 5.1: 1 MB).
	MessageSize int64
	// TrueKeywords is how many ground-truth keywords each message carries.
	TrueKeywords int
	// SourceTags is how many of the true keywords the source annotates
	// (the rest are left for honest enrichment to discover).
	SourceTags int
	// HighProb and MediumProb set the priority mix for ClassMixed nodes;
	// the remainder is low priority.
	HighProb, MediumProb float64
	// QualityMin and QualityMax bound the uniform quality draw for
	// ClassMixed nodes.
	QualityMin, QualityMax float64
}

// DefaultWorkload returns the paper-scale workload over the given pool.
func DefaultWorkload(vocab *enrich.Vocabulary) WorkloadConfig {
	return WorkloadConfig{
		Vocab:        vocab,
		MeanInterval: 2 * time.Hour,
		MessageSize:  1 << 20,
		TrueKeywords: 6,
		SourceTags:   3,
		HighProb:     0.2,
		MediumProb:   0.4,
		QualityMin:   0.3,
		QualityMax:   1.0,
	}
}

// Validate checks the workload.
func (w WorkloadConfig) Validate() error {
	if w.MeanInterval == 0 {
		return nil // generation disabled
	}
	switch {
	case w.MeanInterval < 0:
		return fmt.Errorf("core: workload mean interval must be non-negative, got %v", w.MeanInterval)
	case w.Vocab == nil:
		return fmt.Errorf("core: workload requires a vocabulary")
	case w.MessageSize <= 0:
		return fmt.Errorf("core: workload message size must be positive, got %d", w.MessageSize)
	case w.TrueKeywords <= 0 || w.TrueKeywords > w.Vocab.Len():
		return fmt.Errorf("core: true keyword count %d outside [1, %d]", w.TrueKeywords, w.Vocab.Len())
	case w.SourceTags <= 0 || w.SourceTags > w.TrueKeywords:
		return fmt.Errorf("core: source tag count %d outside [1, %d]", w.SourceTags, w.TrueKeywords)
	case w.HighProb < 0 || w.MediumProb < 0 || w.HighProb+w.MediumProb > 1:
		return fmt.Errorf("core: priority mix (%v, %v) invalid", w.HighProb, w.MediumProb)
	case w.QualityMin <= 0 || w.QualityMax > 1 || w.QualityMin > w.QualityMax:
		return fmt.Errorf("core: quality range [%v, %v] invalid", w.QualityMin, w.QualityMax)
	}
	return nil
}

// scheduleWorkload arms each node's Poisson generation process.
func (e *Engine) scheduleWorkload() {
	if e.cfg.Workload.MeanInterval <= 0 {
		return
	}
	for _, n := range e.nodes {
		e.scheduleNextMessage(n)
	}
}

// scheduleNextMessage (re)arms n's next origination from the current mean
// interval, disarming instead when generation is off or the draw lands past
// the configured duration. Each node holds one reusable event handle, so a
// mid-run rate control (SetWorkloadMeanInterval) can redraw every pending
// delay without stranding stale firings; Reschedule counts as freshly
// scheduled, so same-instant FIFO order matches the historical per-arm
// Schedule calls exactly.
func (e *Engine) scheduleNextMessage(n *Node) {
	mean := e.cfg.Workload.MeanInterval.Seconds()
	if mean <= 0 {
		// Generation disabled — possibly mid-run, with a draw still pending.
		if n.workloadEv != nil {
			n.workloadEv.Cancel()
		}
		return
	}
	delay := time.Duration(e.workloadRNG.ExpDuration(mean) * float64(time.Second))
	if delay < e.cfg.Step {
		delay = e.cfg.Step
	}
	at := e.runner.Clock().Now() + delay
	if at > e.cfg.Duration {
		if n.workloadEv != nil {
			n.workloadEv.Cancel()
		}
		return
	}
	if n.workloadEv != nil {
		n.workloadEv.Reschedule(at)
		return
	}
	n.workloadEv = e.runner.Schedule(at, func(time.Duration) {
		e.originate(n, e.runner.Clock().Now())
		e.scheduleNextMessage(n)
	})
}

// originate draws one message's class, ground truth and source tags for
// node n and mints it. A message that cannot be minted (a drawClass bug,
// or a buffer that refuses it) is dropped rather than corrupting the run.
func (e *Engine) originate(n *Node, now time.Duration) {
	w := e.cfg.Workload
	prio, quality, size := e.drawClass(n)
	truth := w.Vocab.Sample(e.workloadRNG, w.TrueKeywords)
	tagIdx := e.workloadRNG.Sample(len(truth), w.SourceTags)
	tags := make([]string, len(tagIdx), len(tagIdx)+3)
	for j, i := range tagIdx {
		tags[j] = truth[i]
	}
	if n.profile.Kind == behavior.Malicious {
		// Malicious sources mis-tag at creation in pursuit of paying
		// destinations ("a source might annotate this message with a
		// keyword 'parking lot' but there is no parking lot in the image").
		exclude := make(map[string]bool, len(truth))
		for _, kw := range truth {
			exclude[kw] = true
		}
		tags = append(tags, w.Vocab.SampleExcluding(e.workloadRNG, 3, exclude)...)
	}
	e.mint(n, now, size, prio, quality, truth, tags)
}

// drawClass maps the node's generator class (and malicious low-quality
// override) to (priority, quality, size).
func (e *Engine) drawClass(n *Node) (message.Priority, float64, int64) {
	w := e.cfg.Workload
	var prio message.Priority
	var quality float64
	size := w.MessageSize
	switch n.class {
	case ClassHighEnd:
		// "high quality larger size and high priority" — Figure 5.6 notes
		// the higher quality message has a larger size.
		prio, quality, size = message.PriorityHigh, 0.9, w.MessageSize+w.MessageSize/2
	case ClassMidRange:
		prio, quality = message.PriorityMedium, 0.6
	case ClassLowEnd:
		prio, quality, size = message.PriorityLow, 0.3, w.MessageSize/2
	default:
		r := e.workloadRNG.Float64()
		switch {
		case r < w.HighProb:
			prio = message.PriorityHigh
		case r < w.HighProb+w.MediumProb:
			prio = message.PriorityMedium
		default:
			prio = message.PriorityLow
		}
		quality = e.workloadRNG.Range(w.QualityMin, w.QualityMax)
	}
	if n.profile.LowQuality {
		quality = n.profile.MaliciousQuality
	}
	if size <= 0 {
		size = 1
	}
	return prio, quality, size
}
