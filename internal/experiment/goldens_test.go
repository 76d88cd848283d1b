package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/obs"
	"dtnsim/internal/scenario"
	"dtnsim/internal/trace"
)

// scenarioGolden is one whole-run fingerprint beyond kernel_default.golden.
// That run never evicts a message, never runs a baseline router and never
// replays a trace; these goldens pin exactly those paths, in the same
// rendering (report plus event-trace hash), each in its own testdata file.
type scenarioGolden struct {
	file string
	spec scenario.Spec
	// edit adjusts the built configuration (nil: none).
	edit func(*core.Config) error
	// baseline also renders the spec under the ChitChat baseline, after
	// the spec's own run, as kernel_default.golden does.
	baseline bool
	// evicts marks a run that must drop buffered messages, so the golden
	// keeps covering eviction.
	evicts bool
	// paperScale marks the Table 5.1 population run, which is skipped
	// under the race detector.
	paperScale bool
}

// scenarioGoldens lists the goldens in file order.
func scenarioGoldens() []scenarioGolden {
	// The Beta comparator with low-quality malicious content, a commander
	// tier and a battery budget that kills half the radios: the avoid bar,
	// the role-scaled promise and the dead-radio path.
	beta := kernelGoldenSpec(core.SchemeIncentive)
	beta.BetaReputation = true
	beta.MaliciousLowQuality = true
	beta.CommanderPercent = 10
	beta.BatteryJoules = 50
	pressure := kernelGoldenSpec(core.SchemeIncentive)
	pressure.ClassSplit = true
	out := []scenarioGolden{{
		file: "golden_beta_battery.golden",
		spec: beta,
	}, {
		file:   "golden_pressure.golden",
		spec:   pressure,
		edit:   func(cfg *core.Config) error { cfg.BufferCapacity = 8 << 20; return nil },
		evicts: true,
	}}
	for _, name := range scenario.RouterNames() {
		if name == "chitchat" {
			continue // kernel_default.golden
		}
		spec := kernelGoldenSpec(core.SchemeIncentive)
		spec.RouterName = name
		out = append(out, scenarioGolden{file: "golden_router_" + name + ".golden", spec: spec})
	}
	// A 7 s step divides none of the 10 s exchange, 5 min gossip and
	// 30 min sampling intervals, so this golden pins the drift rules: a
	// round re-arms from the tick that ran it, samples stay on their grid.
	step7 := kernelGoldenSpec(core.SchemeIncentive)
	step7.Step = 7 * time.Second
	out = append(out, scenarioGolden{file: "golden_step7s.golden", spec: step7, baseline: true})
	replay := kernelGoldenSpec(core.SchemeIncentive)
	out = append(out, scenarioGolden{
		file: "golden_trace_replay.golden",
		spec: replay,
		edit: func(cfg *core.Config) error { return replayOwnTrace(replay, cfg) },
	})
	t51 := scenario.Default(core.SchemeIncentive)
	t51.AreaKm2 = 5
	t51.Duration = time.Hour
	t51.SelfishPercent = 20
	t51.MaliciousPercent = 10
	t51.Seed = 1
	out = append(out, scenarioGolden{file: "golden_table51_hour.golden", spec: t51, paperScale: true})
	return out
}

// replayOwnTrace records spec's contact trace through the connectivity
// writer, parses it back, and sets it as cfg's contact source, so the run
// replays the connectivity its own mobility produced.
func replayOwnTrace(spec scenario.Spec, cfg *core.Config) error {
	rec, nodes, err := scenario.Build(spec)
	if err != nil {
		return err
	}
	var conn bytes.Buffer
	w := obs.NewConnTraceWriter(&conn)
	rec.Observers = []obs.Observer{w}
	eng, err := core.NewEngine(rec, nodes)
	if err != nil {
		return err
	}
	if _, err := eng.Run(context.Background()); err != nil {
		return err
	}
	if err := w.Err(); err != nil {
		return err
	}
	sched, err := trace.ParseConn(&conn)
	if err != nil {
		return err
	}
	cfg.ContactTrace = sched
	return nil
}

// TestScenarioGoldens runs every scenario golden and compares it byte for
// byte with its recorded file (regenerate with -update-kernel-golden).
func TestScenarioGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full-hour golden runs skipped in -short mode")
	}
	for _, g := range scenarioGoldens() {
		t.Run(strings.TrimSuffix(g.file, ".golden"), func(t *testing.T) {
			if g.paperScale && raceEnabled {
				t.Skip("paper-scale golden skipped under the race detector")
			}
			specs := []scenario.Spec{g.spec}
			if g.baseline {
				chitchat := g.spec
				chitchat.Scheme = core.SchemeChitChat
				specs = append(specs, chitchat)
			}
			var got strings.Builder
			for _, spec := range specs {
				out, eng, err := runGolden(t.Context(), spec, g.edit)
				if err != nil {
					t.Fatal(err)
				}
				if g.evicts {
					dropped := 0
					for _, n := range eng.Nodes() {
						dropped += n.Buffer().Dropped()
					}
					if dropped == 0 {
						t.Error("run evicted nothing; the golden no longer covers eviction")
					}
				}
				got.WriteString(out)
			}
			checkGolden(t, filepath.Join("testdata", g.file), got.String())
		})
	}
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update-kernel-golden.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateKernelGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-kernel-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("run diverged from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestResultJSONGolden pins the wire form of core.Result, the "result"
// object dtnserved returns: json.Marshal(Engine.Result()) for the kernel
// golden's incentive run, one line per checkpoint. The first line is taken
// before the run starts (empty per-priority maps, no rating series), the
// second a minute in (the priority classes not yet created or delivered
// get no key) and the last at the end of the hour. Regenerate with
// -update-kernel-golden.
func TestResultJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-hour golden run skipped in -short mode")
	}
	cfg, nodes, err := scenario.Build(kernelGoldenSpec(core.SchemeIncentive))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	checkpoint := func() {
		b, err := json.Marshal(eng.Result())
		if err != nil {
			t.Fatal(err)
		}
		got.Write(b)
		got.WriteByte('\n')
	}
	checkpoint()
	for _, d := range []time.Duration{resultJSONEarly, cfg.Duration - resultJSONEarly} {
		if err := eng.RunFor(t.Context(), d); err != nil {
			t.Fatal(err)
		}
		checkpoint()
	}
	checkGolden(t, filepath.Join("testdata", "result_json.golden"), got.String())
}

// resultJSONEarly is TestResultJSONGolden's early checkpoint.
const resultJSONEarly = time.Minute
