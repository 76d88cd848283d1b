package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateExampleGolden = flag.Bool("update-example-golden", false,
	"rewrite testdata/stdout.golden from this run")

// TestStdoutGolden runs the example and compares everything it prints with
// testdata/stdout.golden byte for byte.
func TestStdoutGolden(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = run()
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "stdout.golden")
	if *updateExampleGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-example-golden): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("stdout diverged from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
