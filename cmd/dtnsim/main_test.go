package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dtnsim/internal/obs"
)

func TestRunTinySimulation(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "events.jsonl")
	conn := filepath.Join(dir, "conn.trace")
	err := run([]string{
		"-nodes", "15",
		"-area", "0.15",
		"-duration", "10m",
		"-selfish", "20",
		"-trace", trace,
		"-conntrace", conn,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{trace, conn} {
		data, rerr := os.ReadFile(p)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestRunFailsOnUnwritableTrace pins that a trace the run could not write
// fails the command instead of leaving a silently empty file.
func TestRunFailsOnUnwritableTrace(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for _, output := range []string{"trace", "conntrace"} {
		t.Run(output, func(t *testing.T) {
			err := run([]string{"-nodes", "15", "-area", "0.15", "-duration", "10m", "-" + output, "/dev/full"})
			if err == nil {
				t.Fatalf("run with -%s /dev/full succeeded", output)
			}
			if !strings.Contains(err.Error(), output+":") {
				t.Errorf("error %q does not name the -%s output", err, output)
			}
		})
	}
}

func TestRunObservabilityExport(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "obs.jsonl")
	err := run([]string{
		"-nodes", "30",
		"-area", "0.3",
		"-duration", "30m",
		"-heartbeat", "1ms", // fires on nearly every tick
		"-obs", "jsonl=" + out,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	type line struct {
		Type     string        `json:"type"`
		Meta     *obs.Meta     `json:"meta"`
		Snapshot *obs.Snapshot `json:"snapshot"`
	}
	var types []string
	var last line
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l line
		if jerr := json.Unmarshal(sc.Bytes(), &l); jerr != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), jerr)
		}
		types = append(types, l.Type)
		last = l
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if len(types) < 3 {
		t.Fatalf("want at least run_start + heartbeat + run_end, got %v", types)
	}
	if types[0] != "run_start" || last.Type != "run_end" {
		t.Errorf("want run_start first and run_end last, got %v", types)
	}
	hb := 0
	for _, ty := range types[1 : len(types)-1] {
		if ty != "heartbeat" {
			t.Errorf("interior line has type %q, want heartbeat", ty)
		}
		hb++
	}
	if hb == 0 {
		t.Error("no heartbeat lines emitted")
	}
	if last.Meta != nil || types[0] == "run_start" && last.Snapshot == nil {
		t.Fatalf("run_end line malformed: %+v", last)
	}
	snap := *last.Snapshot
	if snap.SimSeconds != 1800 {
		t.Errorf("run_end sim_seconds = %v, want 1800", snap.SimSeconds)
	}
	if snap.Steps == 0 || snap.Events == 0 {
		t.Errorf("run_end snapshot missing progress: steps=%d events=%d", snap.Steps, snap.Events)
	}
	// Acceptance: the phase timers account for (nearly) the whole run.
	if sum := snap.PhaseSum(); sum < 0.95*snap.WallSeconds || sum > snap.WallSeconds*1.001 {
		t.Errorf("phase sum %.6fs outside 5%% of wall clock %.6fs", sum, snap.WallSeconds)
	}
}

func TestRunRejectsBadObsSpec(t *testing.T) {
	for _, spec := range []string{"jsonl=", "csv=/tmp/x", "bogus"} {
		if err := run([]string{"-nodes", "5", "-area", "0.1", "-duration", "1m", "-obs", spec}); err == nil {
			t.Errorf("run with -obs %q should fail", spec)
		}
	}
}

func TestRunChitChatScheme(t *testing.T) {
	if err := run([]string{"-nodes", "10", "-area", "0.1", "-duration", "5m", "-scheme", "chitchat"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRouterFlag(t *testing.T) {
	if err := run([]string{"-nodes", "10", "-area", "0.1", "-duration", "5m", "-router", "epidemic"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-scheme", "bogus"},
		{"-router", "bogus", "-nodes", "5", "-area", "0.1", "-duration", "1m"},
		{"-nodes", "0"},
		{"-selfish", "150"},
		// A negative value is an error, not the Table 5.1 default.
		{"-nodes", "20", "-area", "0.2", "-duration", "-1h"},
		{"-nodes", "20", "-area", "-0.2", "-duration", "1m"},
		{"-nodes", "20", "-area", "0.2", "-duration", "1m", "-tokens", "-5"},
		{"-nodes", "20", "-area", "0.2", "-duration", "1m", "-step", "-1s"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestPriorityNamePadding(t *testing.T) {
	for p := 1; p <= 3; p++ {
		if name := priorityName(p); len(strings.TrimSpace(name)) == 0 {
			t.Errorf("priorityName(%d) empty", p)
		}
	}
}
