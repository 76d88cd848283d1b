package main

import (
	"os"
	"strings"
	"testing"
)

func TestRunTable51(t *testing.T) {
	if err := run([]string{"-exp", "table5.1", "-profile", "bench"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fig9.9", "-profile", "bench"}); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestRunRejectsUnknownProfile(t *testing.T) {
	if err := run([]string{"-exp", "table5.1", "-profile", "galactic"}); err == nil {
		t.Error("unknown profile should fail")
	}
}

func TestRunHonorsTimeout(t *testing.T) {
	// A 1 ns budget must cancel the first simulation run.
	if err := run([]string{"-exp", "fig5.4", "-profile", "bench", "-timeout", "1ns"}); err == nil {
		t.Error("expired timeout should surface as an error")
	}
}

func TestRunParallelAndProgressFlags(t *testing.T) {
	// The scheduler flags must work end to end on a tiny artifact; the
	// progress reporter writes to stderr and must shut down cleanly.
	if err := run([]string{"-exp", "repmodels", "-profile", "bench", "-parallel", "2", "-progress"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesCPUProfile(t *testing.T) {
	path := t.TempDir() + "/cpu.out"
	if err := run([]string{"-exp", "table5.1", "-profile", "bench", "-cpuprofile", path}); err != nil {
		t.Fatal(err)
	}
	// The profile file must exist and be non-trivial.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Error("cpu profile is empty")
	}
}

// TestRunFailsOnUnwritableObsExport pins that an export the suite could not
// write fails the command, not just a line on stderr.
func TestRunFailsOnUnwritableObsExport(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	err := run([]string{"-exp", "repmodels", "-profile", "bench", "-obs", "jsonl=/dev/full"})
	if err == nil {
		t.Fatal("run with -obs jsonl=/dev/full succeeded")
	}
	if !strings.Contains(err.Error(), "obs export") {
		t.Errorf("error %q does not name the obs export", err)
	}
}
