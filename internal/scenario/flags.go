package scenario

import (
	"flag"
	"time"
)

// EngineFlags is the engine-tuning flag block every binary shares: table
// bounds, kinetic detection, and heartbeat cadence. Binding it through
// BindEngineFlags keeps the flag names, help text, and Spec threading in
// one place — the next knob is added here once instead of per-CLI.
type EngineFlags struct {
	TableCap  int
	Skin      float64
	Heartbeat time.Duration
}

// BindEngineFlags registers the shared -tablecap/-skin/-heartbeat flags on
// fs and returns the value block they fill.
func BindEngineFlags(fs *flag.FlagSet) *EngineFlags {
	f := &EngineFlags{}
	fs.IntVar(&f.TableCap, "tablecap", 0, "top-k bound on each node's interest table: overflow evicts the lowest-weight transient row (0 = unbounded, the historical behaviour)")
	fs.Float64Var(&f.Skin, "skin", 0, "kinetic contact-detection skin in metres (0 = auto, a quarter of the radio range; negative forces the full per-tick scan; results are identical at any value)")
	fs.DurationVar(&f.Heartbeat, "heartbeat", 0, "wall-clock heartbeat interval between live observer snapshots; 0 disables")
	return f
}

// Apply threads the flag block onto a Spec.
func (f *EngineFlags) Apply(spec *Spec) {
	spec.TableCap = f.TableCap
	spec.ContactSkin = f.Skin
	spec.Heartbeat = f.Heartbeat
}
