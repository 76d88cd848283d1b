package scenario

import (
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/radio"
)

// Caps on what one fuzz step may cost. Inputs the engine would accept but
// that exceed them are skipped: resource quotas are out of scope for the
// spec path, so the fuzzer hunts panics and hangs, not slow-but-valid runs.
const (
	fuzzMaxNodes    = 1000
	fuzzMaxKeywords = 10000
	fuzzMaxCells    = 1 << 18
	fuzzMaxStep     = time.Minute
	fuzzMinInterval = time.Second
)

// FuzzSpecJSON drives arbitrary bytes down the path a POST /runs body takes:
// decode onto the defaults, Build, core.NewEngine, and one simulated step.
// Every input must end in an error or a finished step — never a panic or a
// hang.
func FuzzSpecJSON(f *testing.F) {
	for _, seed := range []string{
		`{"area_km2":1e12}`,
		`{"area_km2":1e300}`,
		// Huge skins once overflowed the grid's neighbour reach; the key is
		// retired and must now be ignored.
		`{"contact_skin":1e300}`,
		`{"contact_skin":1e12}`,
		// A body written against older specs, whose parallelism, table-cap
		// and skin keys are gone and must be ignored.
		`{"nodes":50,"area_km2":0.5,"workers":2,"regions":4,"table_cap":64,"contact_skin":12.5}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec := Default(core.SchemeIncentive)
		if err := json.Unmarshal(body, &spec); err != nil {
			return
		}
		if spec.Nodes > fuzzMaxNodes || spec.KeywordPool > fuzzMaxKeywords {
			t.Skip("population or vocabulary too large for one test step")
		}
		cfg, specs, err := Build(spec)
		if err != nil {
			return
		}
		// Grids past the int32 cell limit must be rejected by NewEngine,
		// cheaply; grids below it but past the cap would allocate for real.
		cells := (math.Ceil(cfg.Area.Width/radio.Range) + 1) * (math.Ceil(cfg.Area.Height/radio.Range) + 1)
		if cells > fuzzMaxCells && cells <= math.MaxInt32 {
			t.Skip("contact grid too large for one test step")
		}
		if cfg.Step > fuzzMaxStep || cfg.Workload.MeanInterval < fuzzMinInterval {
			t.Skip("step or message rate too large for one test step")
		}
		eng, err := core.NewEngine(cfg, specs)
		if err != nil {
			return
		}
		if err := eng.RunFor(context.Background(), cfg.Step); err != nil {
			t.Fatalf("step failed: %v", err)
		}
		if eng.Now() != cfg.Step {
			t.Fatalf("clock at %v after one step of %v", eng.Now(), cfg.Step)
		}
	})
}
