// Command dtntrace analyses simulator traces: given a ONE-style
// connectivity trace (from dtnsim -conntrace or an external dataset) it
// prints contact statistics; given a JSONL event trace (from dtnsim
// -trace) it prints the message-lifecycle and token-flow summary.
//
// Usage:
//
//	dtntrace -conn run.conntrace
//	dtntrace -events run.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"dtnsim/internal/stats"
	"dtnsim/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dtntrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dtntrace", flag.ContinueOnError)
	connPath := fs.String("conn", "", "ONE-style connectivity trace to analyse")
	eventsPath := fs.String("events", "", "JSONL event trace to analyse")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connPath == "" && *eventsPath == "" {
		return fmt.Errorf("pass -conn and/or -events")
	}
	if *connPath != "" {
		if err := analyseConn(*connPath, out); err != nil {
			return err
		}
	}
	if *eventsPath != "" {
		if err := analyseEvents(*eventsPath, out); err != nil {
			return err
		}
	}
	return nil
}

func analyseConn(path string, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sched, err := trace.ParseConn(f)
	if err != nil {
		return err
	}
	contacts := sched.Contacts()
	if len(contacts) == 0 {
		fmt.Fprintln(out, "connectivity: no contacts")
		return nil
	}
	var durations stats.Summary
	perNode := map[int]int{}
	// Inter-contact times per pair: the waiting time between consecutive
	// encounters of the same two nodes — the key DTN connectivity metric.
	lastEnd := map[[2]int]time.Duration{}
	var interContact stats.Summary
	for _, c := range contacts {
		durations.Add((c.End - c.Start).Seconds())
		perNode[int(c.A)]++
		perNode[int(c.B)]++
		key := [2]int{int(c.A), int(c.B)}
		if prev, ok := lastEnd[key]; ok && c.Start > prev {
			interContact.Add((c.Start - prev).Seconds())
		}
		if c.End > lastEnd[key] {
			lastEnd[key] = c.End
		}
	}
	fmt.Fprintf(out, "connectivity: %d contacts over %v, %d nodes\n",
		len(contacts), sched.Duration().Round(time.Second), len(perNode))
	fmt.Fprintf(out, "contact duration (s): %s\n", durations.String())
	if interContact.N() > 0 {
		fmt.Fprintf(out, "inter-contact time (s): %s\n", interContact.String())
	}
	// Ties go to the lowest ID, so the line does not depend on map order.
	var busiest, busiestN int
	for id, n := range perNode {
		if n > busiestN || n == busiestN && id < busiest {
			busiest, busiestN = id, n
		}
	}
	fmt.Fprintf(out, "busiest node: n%d with %d contacts\n", busiest, busiestN)
	if h, herr := stats.NewHistogram(0, durations.Max()+1, 8); herr == nil {
		for _, c := range contacts {
			h.Add((c.End - c.Start).Seconds())
		}
		fmt.Fprintf(out, "contact duration histogram (s):\n%s", h.Render(40))
	}
	return nil
}

type eventLine struct {
	AtMillis int64   `json:"atMillis"`
	Kind     string  `json:"kind"`
	A        int     `json:"a"`
	B        int     `json:"b"`
	Msg      string  `json:"msg"`
	Tokens   float64 `json:"tokens"`
	Relevant bool    `json:"relevant"`
}

func analyseEvents(path string, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	counts := map[string]int{}
	var tokenVolume float64
	created := map[string]int64{}
	var latencySum time.Duration
	var delivered int
	relevantTags := 0
	scanner := bufio.NewScanner(f)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		if len(scanner.Bytes()) == 0 {
			continue
		}
		var e eventLine
		if err := json.Unmarshal(scanner.Bytes(), &e); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		counts[e.Kind]++
		switch e.Kind {
		case "PAY":
			tokenVolume += e.Tokens
		case "CREATE":
			created[e.Msg] = e.AtMillis
		case "DELIVER":
			delivered++
			if c, ok := created[e.Msg]; ok {
				latencySum += time.Duration(e.AtMillis-c) * time.Millisecond
			}
		case "TAG":
			if e.Relevant {
				relevantTags++
			}
		}
	}
	if err := scanner.Err(); err != nil {
		return err
	}
	fmt.Fprintln(out, "events:")
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(out, "  %-9s %d\n", k, counts[k])
	}
	if delivered > 0 {
		fmt.Fprintf(out, "mean delivery latency: %v\n", (latencySum / time.Duration(delivered)).Round(time.Second))
	}
	if counts["CREATE"] > 0 {
		fmt.Fprintf(out, "delivery ratio (pairs): %.3f\n", float64(delivered)/float64(counts["CREATE"]))
	}
	fmt.Fprintf(out, "token volume paid: %.1f across %d payments\n", tokenVolume, counts["PAY"])
	if counts["TAG"] > 0 {
		fmt.Fprintf(out, "enrichment: %d tags (%d relevant)\n", counts["TAG"], relevantTags)
	}
	return nil
}
