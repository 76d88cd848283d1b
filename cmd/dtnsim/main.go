// Command dtnsim runs a single DTN simulation and prints its full report:
// delivery metrics, traffic, token economy, enrichment counters, and the
// malicious-rating time series.
//
// Usage:
//
//	dtnsim -nodes 500 -area 5 -duration 24h -scheme incentive \
//	       -selfish 20 -malicious 10 -seed 1
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dtnsim/internal/core"
	"dtnsim/internal/message"
	"dtnsim/internal/obs"
	"dtnsim/internal/prof"
	"dtnsim/internal/report"
	"dtnsim/internal/scenario"
	"dtnsim/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dtnsim:", err)
		os.Exit(1)
	}
}

// traceRecorder is a trace writer that latches its first write error.
type traceRecorder interface {
	report.Recorder
	Err() error
}

// output is a file the run writes through a recorder or sink that latches
// its first write error.
type output struct {
	name string
	file io.Closer
	err  func() error
}

// close closes the file and reports the first write error, else the close
// error.
func (o output) close() error {
	err := o.err()
	if cerr := o.file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s: %w", o.name, err)
	}
	return nil
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("dtnsim", flag.ContinueOnError)
	var (
		nodes     = fs.Int("nodes", 100, "number of participants")
		area      = fs.Float64("area", 1, "area in square kilometres")
		duration  = fs.Duration("duration", 6*time.Hour, "simulated time span")
		schemeStr = fs.String("scheme", "incentive", "protocol: chitchat or incentive")
		selfish   = fs.Int("selfish", 0, "percentage of selfish nodes")
		malicious = fs.Int("malicious", 0, "percentage of malicious nodes")
		tokens    = fs.Float64("tokens", 0, "initial tokens per node (0 = Table 5.1 default)")
		seed      = fs.Int64("seed", 1, "random seed")
		step      = fs.Duration("step", time.Second, "tick granularity")
		classes   = fs.Bool("classes", false, "enable the Figure 5.6 generator class split")
		router    = fs.String("router", "chitchat", "routing algorithm (chitchat, epidemic, direct, spray-and-wait, prophet, two-hop)")
		tracePath = fs.String("trace", "", "write a JSONL event trace to this file")
		connPath  = fs.String("conntrace", "", "write a ONE-style connectivity trace to this file")
		replay    = fs.String("replay", "", "replay connectivity from a ONE-style trace file instead of mobility")
		battery   = fs.Float64("battery", 0, "per-node radio energy budget in joules (0 = unlimited)")
		obsSpec   = fs.String("obs", "", "structured observability export, format jsonl=PATH: write run_start/heartbeat/run_end snapshots as JSON lines")
		heartbeat = fs.Duration("heartbeat", 0, "wall-clock heartbeat interval between live observer snapshots; 0 disables")
		cpuprof   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprof   = fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	scheme, err := core.SchemeByName(*schemeStr)
	if err != nil {
		return err
	}

	spec := scenario.Default(scheme)
	spec.Nodes = *nodes
	spec.AreaKm2 = *area
	spec.Duration = *duration
	spec.SelfishPercent = *selfish
	spec.MaliciousPercent = *malicious
	spec.MaliciousLowQuality = *malicious > 0
	spec.InitialTokens = *tokens
	spec.Seed = *seed
	spec.Step = *step
	spec.ClassSplit = *classes
	spec.BatteryJoules = *battery
	spec.Heartbeat = *heartbeat
	if *router != "chitchat" {
		spec.RouterName = *router
	}

	cfg, specs, err := scenario.Build(spec)
	if err != nil {
		return err
	}
	if *replay != "" {
		f, ferr := os.Open(*replay)
		if ferr != nil {
			return ferr
		}
		sched, perr := trace.ParseConn(f)
		f.Close()
		if perr != nil {
			return perr
		}
		cfg.ContactTrace = sched
		fmt.Printf("replaying %d recorded contacts (max node %v, span %v)\n",
			sched.Len(), sched.MaxNode(), sched.Duration().Round(time.Second))
	}
	// Every output file is closed on the way out, and a failed write or
	// close fails the command.
	var outputs []output
	defer func() {
		for _, o := range outputs {
			if cerr := o.close(); err == nil {
				err = cerr
			}
		}
	}()
	for _, sink := range []struct {
		name, path string
		make       func(io.Writer) traceRecorder
	}{
		{"trace", *tracePath, func(w io.Writer) traceRecorder { return report.NewJSONLWriter(w) }},
		{"conntrace", *connPath, func(w io.Writer) traceRecorder { return report.NewConnTraceWriter(w) }},
	} {
		if sink.path == "" {
			continue
		}
		f, ferr := os.Create(sink.path)
		if ferr != nil {
			return ferr
		}
		rec := sink.make(f)
		outputs = append(outputs, output{sink.name, f, rec.Err})
		cfg.Observers = append(cfg.Observers, obs.Record(rec))
	}
	var stats *report.ContactStats
	if *tracePath != "" || *connPath != "" {
		stats = report.NewContactStats()
		cfg.Observers = append(cfg.Observers, obs.Record(stats))
	}
	jsonlSink, jsonlFile, err := obs.OpenJSONL(*obsSpec)
	if err != nil {
		return err
	}
	if jsonlSink != nil {
		outputs = append(outputs, output{"obs export", jsonlFile, jsonlSink.Err})
		cfg.Observers = append(cfg.Observers, jsonlSink)
	}
	if *heartbeat > 0 {
		cfg.Observers = append(cfg.Observers, obs.NewLogSink(os.Stderr))
	}

	eng, err := core.NewEngine(cfg, specs)
	if err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuprof, *memprof)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := eng.Run(context.Background())
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	printResult(res, time.Since(start))
	if stats != nil {
		fmt.Printf("contacts:   %d completed, mean duration %v\n",
			stats.Completed(), stats.MeanDuration().Round(time.Second))
	}
	return nil
}

func printResult(res core.Result, wall time.Duration) {
	fmt.Printf("scheme: %s, nodes: %d (wall clock %v)\n", res.Scheme, res.Nodes, wall.Round(time.Millisecond))
	fmt.Printf("messages:   created=%d delivered=%d MDR=%.3f meanLatency=%v\n",
		res.Created, res.Delivered, res.MDR, res.MeanLatency.Round(time.Second))
	fmt.Printf("traffic:    transfers=%d relay=%d aborted=%d\n",
		res.Transfers, res.RelayTransfers, res.AbortedTransfers)
	fmt.Printf("refusals:   noTokens=%d reputation=%d radioOff=%d\n",
		res.RefusedNoTokens, res.RefusedReputation, res.RefusedRadioOff)
	fmt.Printf("enrichment: tags=%d relevant=%d irrelevant=%d\n",
		res.TagsAdded, res.RelevantTags, res.IrrelevantTags)
	fmt.Printf("tokens:     mean=%.1f min=%.1f max=%.1f exhausted=%d ledger=%d transfers / %.1f volume\n",
		res.TokensMean, res.TokensMin, res.TokensMax, res.ExhaustedNodes, res.LedgerTransfers, res.LedgerVolume)
	fmt.Printf("energy:     %.1f J total\n", res.EnergyJoules)
	for p := 1; p <= 3; p++ {
		prio := priorityName(p)
		fmt.Printf("priority %s: created=%d delivered=%d\n",
			prio, res.CreatedByPriority[priorityOf(p)], res.DeliveredByPriority[priorityOf(p)])
	}
	if len(res.RatingSeries) > 0 {
		fmt.Println("malicious rating series:")
		for _, s := range res.RatingSeries {
			fmt.Printf("  %8s  %.3f\n", s.At.Round(time.Minute), s.MeanMaliciousRating)
		}
	}
}

func priorityOf(p int) message.Priority { return message.Priority(p) }

func priorityName(p int) string {
	switch p {
	case 1:
		return "high  "
	case 2:
		return "medium"
	default:
		return "low   "
	}
}
