package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAnalyseConn(t *testing.T) {
	path := writeFile(t, "run.conntrace", `10.0 CONN 1 2 up
40.0 CONN 1 2 down
15.0 CONN 2 3 up
35.0 CONN 2 3 down
`)
	var out bytes.Buffer
	if err := run([]string{"-conn", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "2 contacts") {
		t.Errorf("missing contact count:\n%s", s)
	}
	if !strings.Contains(s, "busiest node: n2") {
		t.Errorf("missing busiest node:\n%s", s)
	}
}

// TestAnalyseConnBusiestTie pins the busiest-node tie-break: four nodes
// with two contacts each must name the lowest ID every time, whatever
// order the per-node map iterates in.
func TestAnalyseConnBusiestTie(t *testing.T) {
	path := writeFile(t, "tie.conntrace", `10.0 CONN 0 1 up
20.0 CONN 0 1 down
10.0 CONN 2 3 up
20.0 CONN 2 3 down
30.0 CONN 1 2 up
40.0 CONN 1 2 down
30.0 CONN 0 3 up
40.0 CONN 0 3 down
`)
	for i := 0; i < 20; i++ {
		var out bytes.Buffer
		if err := run([]string{"-conn", path}, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "busiest node: n0 with 2 contacts") {
			t.Fatalf("analysis %d did not name n0:\n%s", i, out.String())
		}
	}
}

func TestAnalyseEvents(t *testing.T) {
	path := writeFile(t, "run.jsonl", `{"atMillis":1000,"kind":"CREATE","a":1,"msg":"n1-m1"}
{"atMillis":5000,"kind":"RELAY","a":1,"b":2,"msg":"n1-m1"}
{"atMillis":9000,"kind":"DELIVER","a":2,"b":3,"msg":"n1-m1"}
{"atMillis":9000,"kind":"PAY","a":3,"b":2,"msg":"n1-m1","tokens":2.5}
{"atMillis":6000,"kind":"TAG","a":2,"msg":"n1-m1","keyword":"x","relevant":true}
`)
	var out bytes.Buffer
	if err := run([]string{"-events", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"CREATE    1",
		"mean delivery latency: 8s",
		"token volume paid: 2.5 across 1 payments",
		"enrichment: 1 tags (1 relevant)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestRunRequiresInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("no flags should fail")
	}
}

func TestRunRejectsMissingFiles(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-conn", "/nonexistent"}, &out); err == nil {
		t.Error("missing conn file should fail")
	}
	if err := run([]string{"-events", "/nonexistent"}, &out); err == nil {
		t.Error("missing events file should fail")
	}
}

func TestRunRejectsMalformedEvents(t *testing.T) {
	path := writeFile(t, "bad.jsonl", "not json\n")
	var out bytes.Buffer
	if err := run([]string{"-events", path}, &out); err == nil {
		t.Error("malformed events should fail")
	}
}
