// Command perfbench is the repository benchmark. It runs one named
// workload of the simulator from a seed, checks the run's outputs, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer metrics)
// as the last line of standard output, one JSON object. README.md beside
// this file describes the workloads and metrics; run.py builds and runs it:
//
//	python3 perfbench/run.py --workload table51 --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// provenance identifies the host and build a result was measured on, and
// how its times were scaled (see hostspeed.go).
type provenance struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Trace      int       `json:"trace"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	HostRefS   []float64 `json:"host_ref_s,omitempty"`
	TimeScale  float64   `json:"time_scale,omitempty"`
}

// printout is everything one benchmark run prints.
type printout struct {
	result   result
	traj     []checkpoint
	hostRefS []float64 // reference-loop times before and after, untraced runs
	scale    float64   // factor applied to the untraced run's times
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are built from")
	seconds := fs.Int("seconds", 25, "measuring time; a run repeats the workload while a further repeat fits")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of the end-to-end metrics")
	commit := fs.String("commit", "unknown", "source commit, recorded in the provenance line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	rep, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	lines := []any{map[string]provenance{"provenance": {
		Workload:   *name,
		Seed:       *seed,
		Trace:      *trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     *commit,
		HostRefS:   rep.hostRefS,
		TimeScale:  rep.scale,
	}}}
	if rep.traj != nil {
		lines = append(lines, map[string][]checkpoint{"trajectory": rep.traj})
	}
	for _, line := range append(lines, rep.result) {
		if err := enc.Encode(line); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measure runs a workload for one benchmark run. Untraced, it repeats the
// workload while another repeat is expected to fit the budget (at least
// once), times extra set-ups, and reports medians of the end-to-end
// metrics, their times scaled to reference host speed. Traced, it runs the
// workload once untraced and once traced and reports the traced run's
// layers; the untraced run is the reference both for the trace overhead
// and for the traced run's outcome.
func measure(w workload, seed int64, budget time.Duration, traced bool) (printout, error) {
	var out printout
	if !traced {
		out.hostRefS = append(out.hostRefS, hostReference().Seconds())
	}
	var reps []rep
	start := time.Now()
	for {
		r, err := w.run(seed, false)
		if err != nil {
			return printout{}, err
		}
		reps = append(reps, r)
		elapsed := time.Since(start)
		if traced || elapsed+elapsed/time.Duration(len(reps)) > budget {
			break
		}
	}
	if traced {
		r, err := w.run(seed, true)
		if err != nil {
			return printout{}, err
		}
		reps = append(reps, r)
	}

	res := result{Correct: true, Attempted: len(reps), Metrics: metrics{}}
	for i, r := range reps {
		bad := append([]string(nil), r.problems...)
		if i > 0 && !reflect.DeepEqual(r.outcome, reps[0].outcome) {
			bad = append(bad, "outcome differs from the first run of this seed")
		}
		if len(bad) > 0 {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: run %d failed its checks: %s\n", i+1, strings.Join(bad, "; "))
		}
	}

	if traced {
		tr := reps[len(reps)-1]
		res.Metrics = tr.layers
		res.Metrics.set("trace_overhead_ratio", "ratio", tr.wall.Seconds()/reps[0].wall.Seconds())
		out.result, out.traj = res, tr.traj
		return out, nil
	}

	var setups, walls, tails, heaps, allocs []float64
	for _, r := range reps {
		if r.setup > 0 {
			setups = append(setups, r.setup.Seconds())
		}
		walls = append(walls, r.wall.Seconds())
		tails = append(tails, r.tailMs)
		heaps = append(heaps, float64(r.liveHeap)/(1<<20))
		allocs = append(allocs, float64(r.alloc)/(1<<20))
	}
	for i := 0; i < w.setupSamples(); i++ {
		d, err := w.setup(seed)
		if err != nil {
			return printout{}, err
		}
		setups = append(setups, d.Seconds())
	}
	out.hostRefS = append(out.hostRefS, hostReference().Seconds())
	out.scale = refNominal.Seconds() / ((out.hostRefS[0] + out.hostRefS[1]) / 2)
	res.Metrics.set("wall_s", "s", out.scale*median(walls))
	res.Metrics.set("setup_s", "s", out.scale*median(setups))
	res.Metrics.set("tail_ms_per_sim_s", "ms/sim-s", out.scale*median(tails))
	res.Metrics.set("live_heap_mb", "MB", median(heaps))
	res.Metrics.set("alloc_mb", "MB", median(allocs))
	out.result = res
	return out, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
