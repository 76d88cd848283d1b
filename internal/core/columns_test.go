package core_test

import (
	"context"
	"slices"
	"testing"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/routing"
	"dtnsim/internal/scenario"
)

// checkBufferColumns checks every node's buffer columns against the copies
// they stand for: one slot per resident copy, each slot's handle the copy's
// Handle, and each filled tag-ID slot the copy's routing.KeywordIDs. An
// empty slot is one routing has not read since the copy arrived or was
// last tagged. It returns how many slots were filled.
func checkBufferColumns(t *testing.T, eng *core.Engine, when string) (filled int) {
	t.Helper()
	for _, n := range eng.Nodes() {
		buf := n.Buffer()
		msgs, handles, ids := buf.Messages(), buf.Handles(), buf.TagIDs()
		if len(handles) != len(msgs) || len(ids) != len(msgs) {
			t.Fatalf("%s, node %v: %d copies, %d handles, %d ID slots", when, n.ID(), len(msgs), len(handles), len(ids))
		}
		for i, m := range msgs {
			if handles[i] != m.Handle {
				t.Fatalf("%s, node %v slot %d: handle %d, copy %s has %d", when, n.ID(), i, handles[i], m.ID, m.Handle)
			}
			if ids[i] == nil {
				continue
			}
			filled++
			if want := routing.KeywordIDs(m, n.Interests().Interner()); !slices.Equal(ids[i], want) {
				t.Fatalf("%s, node %v slot %d: IDs %v, copy %s tagged %v has %v", when, n.ID(), i, ids[i], m.ID, m.Keywords(), want)
			}
		}
	}
	return filled
}

// TestBufferColumnsMatchCopies checks the routing columns after full runs
// under both schemes, with malicious taggers and 8 MB buffers, so copies
// are evicted and, under the incentive scheme, enriched by honest and
// malicious relays; and again after Device.Enrich retags buffered copies
// whose slots routing had filled, and after the run goes on from there.
// Only filled slots name IDs: Device.Enrich on a copy whose slot is empty
// must leave it empty and the buffer's revision where it was.
func TestBufferColumnsMatchCopies(t *testing.T) {
	for _, scheme := range []core.Scheme{core.SchemeChitChat, core.SchemeIncentive} {
		t.Run(scheme.String(), func(t *testing.T) {
			spec := scenario.Default(scheme)
			spec.Nodes = 40
			spec.AreaKm2 = 0.4
			spec.Duration = 45 * time.Minute
			spec.MaliciousPercent = 20
			spec.MeanMessageInterval = 2 * time.Minute
			cfg, specs, err := scenario.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.BufferCapacity = 8 << 20
			eng, err := core.NewEngine(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if err := eng.RunFor(ctx, 30*time.Minute); err != nil {
				t.Fatal(err)
			}
			if filled := checkBufferColumns(t, eng, "at 30 min"); filled == 0 {
				t.Fatal("no tag-ID slot was filled at 30 min")
			}

			// Retag one routed copy in every buffer through the operator
			// function; its slot must not keep the old IDs. Retag one
			// unread copy too; its slot stays empty and the revision
			// stands.
			retagged, unread := 0, 0
			for _, n := range eng.Nodes() {
				buf := n.Buffer()
				dev, err := eng.Device(n.ID())
				if err != nil {
					t.Fatal(err)
				}
				if i := slices.IndexFunc(buf.TagIDs(), func(ids []int32) bool { return ids == nil }); i >= 0 {
					m, rev := buf.Messages()[i], buf.Revision()
					if _, err := dev.Enrich(m.ID, "kw-unread-"+n.ID().String()); err != nil {
						t.Fatal(err)
					}
					if buf.TagIDs()[i] != nil || buf.Revision() != rev {
						t.Fatalf("node %v: retagging unread copy %s filled its slot or moved the revision", n.ID(), m.ID)
					}
					unread++
				}
				i := slices.IndexFunc(buf.TagIDs(), func(ids []int32) bool { return ids != nil })
				if i < 0 {
					continue
				}
				m := buf.Messages()[i]
				if _, err := dev.Enrich(m.ID, "kw-enrich-"+n.ID().String()); err != nil {
					t.Fatal(err)
				}
				retagged++
			}
			if retagged == 0 || unread == 0 {
				t.Fatalf("%d routed and %d unread copies retagged: each must occur", retagged, unread)
			}
			checkBufferColumns(t, eng, "after Device.Enrich")

			res, err := eng.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if filled := checkBufferColumns(t, eng, "at run end"); filled == 0 {
				t.Fatal("no tag-ID slot was filled at run end")
			}
			dropped := 0
			for _, n := range eng.Nodes() {
				dropped += n.Buffer().Dropped()
			}
			if dropped == 0 {
				t.Fatal("no buffer evicted a copy")
			}
			if scheme == core.SchemeIncentive && res.TagsAdded <= retagged+unread {
				t.Fatalf("%d tags added, %d of them by Device.Enrich: relays enriched nothing", res.TagsAdded, retagged)
			}
		})
	}
}
