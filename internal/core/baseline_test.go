package core_test

import (
	"context"
	"testing"
	"time"

	"dtnsim/internal/behavior"
	"dtnsim/internal/core"
	"dtnsim/internal/message"
	"dtnsim/internal/obs"
	"dtnsim/internal/report"
)

// TestBaselineTransmitsFIFO verifies the scheme split in transmission
// ordering: the incentive scheme sends high-priority messages first
// (Figure 5.6's mechanism), the ChitChat baseline sends in creation order.
func TestBaselineTransmitsFIFO(t *testing.T) {
	run := func(scheme core.Scheme) []string {
		cfg := lineConfig(t, scheme)
		cfg.Duration = 3 * time.Minute
		specs := []core.NodeSpec{
			{Profile: behavior.CooperativeProfile(), Mobility: stationary(100, 100)},
			{Profile: behavior.CooperativeProfile(), Mobility: stationary(180, 100), Interests: []string{"kw-0", "kw-1"}},
		}
		var buf obs.Buffer
		cfg.Observers = []obs.Observer{&buf}
		eng, err := core.NewEngine(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		dev, _ := eng.Device(0)
		// Older low-priority message, then a newer high-priority one.
		if _, err := dev.Annotate([]string{"kw-0"}, []string{"kw-0"}, 1<<20, message.PriorityLow, 0.9); err != nil {
			t.Fatal(err)
		}
		if _, err := dev.Annotate([]string{"kw-1"}, []string{"kw-1"}, 1<<20, message.PriorityHigh, 0.9); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		var order []string
		for _, e := range buf.Filter(report.Delivered) {
			order = append(order, string(e.Msg))
		}
		return order
	}

	incentive := run(core.SchemeIncentive)
	if len(incentive) != 2 || incentive[0] != "n0-m2" {
		t.Errorf("incentive delivery order = %v, want the high-priority n0-m2 first", incentive)
	}
	baseline := run(core.SchemeChitChat)
	if len(baseline) != 2 || baseline[0] != "n0-m1" {
		t.Errorf("baseline delivery order = %v, want creation order (n0-m1 first)", baseline)
	}
}
