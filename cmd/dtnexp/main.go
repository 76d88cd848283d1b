// Command dtnexp regenerates the paper's evaluation artifacts: every figure
// (5.1–5.6), Table 5.1, the ablation studies, and the router comparison.
//
// Usage:
//
//	dtnexp -exp fig5.1 -profile quick
//	dtnexp -exp all    -profile paper -parallel 8 -progress
//
// Profiles scale the network while preserving the paper's node density
// (100 participants per km²): "paper" is Table 5.1 exactly, "quick"
// completes the full suite in minutes, "bench" matches the testing.B scale.
//
// Every sweep runs on one bounded pool shared across the
// suite — independent jobs of (sweep point × scheme × seed) — so the run
// scales with cores while the printed tables stay byte-identical to the
// sequential (-parallel 1) output. -progress reports live throughput and
// ETA; -cpuprofile records a pprof profile.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"dtnsim/internal/experiment"
	"dtnsim/internal/obs"
	"dtnsim/internal/prof"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dtnexp:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("dtnexp", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id: table5.1, fig5.1 .. fig5.6, ablations, routers, battery, repmodels, sensitivity, or all")
	profileName := fs.String("profile", "quick", "scale profile: paper, quick, or bench")
	timeout := fs.Duration("timeout", 0, "optional wall-clock limit for the whole run")
	parallel := fs.Int("parallel", 0, "sweep-scheduler workers; 0 means GOMAXPROCS, higher values are capped at GOMAXPROCS")
	progress := fs.Bool("progress", false, "print live scheduler progress (jobs done/total, sim-s per wall-s, ETA) to stderr")
	obsSpec := fs.String("obs", "", "structured observability export, format jsonl=PATH: one run_start/heartbeat/run_end JSON line per engine run, suite-wide")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	heartbeat := fs.Duration("heartbeat", 0, "wall-clock heartbeat interval between live observer snapshots; 0 disables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	profile, err := experiment.ProfileByName(*profileName)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "dtnexp: profile:", perr)
		}
	}()

	// One bounded pool for the whole suite: every sweep's (point × scheme ×
	// seed) jobs share these slots, so -exp all scales with cores without
	// oversubscribing.
	workers := runtime.GOMAXPROCS(0)
	if *parallel > 0 && *parallel < workers {
		workers = *parallel
	}
	pool := experiment.NewPool(workers)
	ctx = experiment.WithPool(ctx, pool)
	if *progress {
		pr := experiment.NewProgress()
		pool.SetProgress(pr)
		stop := pr.Start(os.Stderr, time.Second)
		defer stop()
	}

	obsv := experiment.Observation{Heartbeat: *heartbeat}
	if *progress && obsv.Heartbeat == 0 {
		// Keep the live rate moving during long runs, not only at job ends.
		obsv.Heartbeat = time.Second
	}
	jsonlSink, jsonlFile, err := obs.OpenJSONL(*obsSpec)
	if err != nil {
		return err
	}
	if jsonlSink != nil {
		// A failed export write or close fails the command.
		defer func() {
			werr := jsonlSink.Err()
			if cerr := jsonlFile.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil && err == nil {
				err = fmt.Errorf("obs export: %w", werr)
			}
		}()
		obsv.Observers = append(obsv.Observers, jsonlSink)
	}
	if obsv.Heartbeat > 0 || len(obsv.Observers) > 0 {
		ctx = experiment.WithObservation(ctx, obsv)
	}

	runners := map[string]func() error{
		"table5.1": func() error {
			fmt.Println(experiment.Table51(profile))
			return nil
		},
		"fig5.1": func() error {
			t, _, err := experiment.Fig51(ctx, profile)
			return printTable(t, err)
		},
		"fig5.2": func() error {
			t, _, err := experiment.Fig52(ctx, profile)
			return printTable(t, err)
		},
		"fig5.3": func() error {
			t, _, err := experiment.Fig53(ctx, profile)
			return printTable(t, err)
		},
		"fig5.4": func() error {
			t, _, err := experiment.Fig54(ctx, profile)
			return printTable(t, err)
		},
		"fig5.5": func() error {
			t, _, err := experiment.Fig55(ctx, profile)
			return printTable(t, err)
		},
		"fig5.6": func() error {
			t, _, err := experiment.Fig56(ctx, profile)
			return printTable(t, err)
		},
		"ablations": func() error {
			for _, f := range []func(context.Context, experiment.Profile) (experiment.Table, experiment.AblationResult, error){
				experiment.AblationReputation,
				experiment.AblationEnrichment,
				experiment.AblationPrepay,
				experiment.AblationPriorityBuffers,
			} {
				t, _, err := f(ctx, profile)
				if err := printTable(t, err); err != nil {
					return err
				}
			}
			return nil
		},
		"routers": func() error {
			t, _, err := experiment.BaselineComparison(ctx, profile)
			return printTable(t, err)
		},
		"battery": func() error {
			t, _, err := experiment.BatterySweep(ctx, profile)
			return printTable(t, err)
		},
		"repmodels": func() error {
			t, _, err := experiment.ReputationModelComparison(ctx, profile)
			return printTable(t, err)
		},
		"sensitivity": func() error {
			t, _, err := experiment.Sensitivity(ctx, profile)
			return printTable(t, err)
		},
	}

	if *exp == "all" {
		order := []string{"table5.1", "fig5.1", "fig5.2", "fig5.3", "fig5.4", "fig5.5", "fig5.6", "ablations", "routers", "battery", "repmodels", "sensitivity"}
		for _, id := range order {
			start := time.Now()
			if err := runners[id](); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Second))
		}
		return nil
	}
	runner, ok := runners[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return runner()
}

func printTable(t experiment.Table, err error) error {
	if err != nil {
		return err
	}
	fmt.Println(t)
	return nil
}
