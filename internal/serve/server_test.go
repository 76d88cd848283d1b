package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// newTestServer wires a store into an httptest server.
func newTestServer(t *testing.T, maxConcurrent int) (*Store, *httptest.Server) {
	t.Helper()
	store := NewStore(maxConcurrent, t.TempDir())
	srv := httptest.NewServer(NewServer(store))
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	return store, srv
}

// doJSON issues one request and decodes the JSON response into out.
func doJSON(t *testing.T, method, url string, body any, wantCode int, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s = %d (%s), want %d", method, url, resp.StatusCode, raw, wantCode)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad response %s: %v", method, url, raw, err)
		}
	}
}

// waitHTTPState polls GET /runs/{id} until the run reaches want.
func waitHTTPState(t *testing.T, base, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var st Status
	for time.Now().Before(deadline) {
		doJSON(t, http.MethodGet, base+"/runs/"+id, nil, http.StatusOK, &st)
		if st.State == want {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s: state %q never reached %q over HTTP", id, st.State, want)
	return st
}

func TestHTTPRunLifecycle(t *testing.T) {
	_, srv := newTestServer(t, 2)

	// Partial body merges over the incentive-scheme defaults.
	var created Status
	doJSON(t, http.MethodPost, srv.URL+"/runs", map[string]any{
		"spec": map[string]any{
			"nodes":              30,
			"keyword_pool":       40,
			"interests_per_node": 5,
			"area_km2":           0.5,
			"duration":           "5m",
			"seed":               7,
		},
		"trace": true,
	}, http.StatusCreated, &created)
	if created.State != StateCreated {
		t.Fatalf("created state = %q", created.State)
	}
	if created.Spec.Nodes != 30 || created.Spec.KeywordPool != 40 {
		t.Fatalf("spec did not merge: %+v", created.Spec)
	}
	if created.Spec.InterestsPerNode != 5 {
		t.Fatalf("interests = %d, want 5", created.Spec.InterestsPerNode)
	}
	if created.Spec.SelfishOpenProb != 0.1 {
		t.Fatalf("default selfish open prob lost in merge: %+v", created.Spec)
	}

	// Reconfigure while still created.
	var patched Status
	doJSON(t, http.MethodPatch, srv.URL+"/runs/"+created.ID, map[string]any{
		"spec": map[string]any{"seed": 9},
	}, http.StatusOK, &patched)
	if patched.Spec.Seed != 9 || patched.Spec.Nodes != 30 {
		t.Fatalf("patch did not merge onto current spec: %+v", patched.Spec)
	}

	doJSON(t, http.MethodPost, srv.URL+"/runs/"+created.ID+"/start", nil, http.StatusAccepted, nil)
	doJSON(t, http.MethodPost, srv.URL+"/runs/"+created.ID+"/start", nil, http.StatusConflict, nil)
	doJSON(t, http.MethodPatch, srv.URL+"/runs/"+created.ID, map[string]any{
		"spec": map[string]any{"seed": 3},
	}, http.StatusConflict, nil)

	final := waitHTTPState(t, srv.URL, created.ID, StateDone)
	if final.Result == nil || final.Result.Nodes != 30 {
		t.Fatalf("final result = %+v", final.Result)
	}

	// Trace download.
	resp, err := http.Get(srv.URL + "/runs/" + created.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	trace, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(trace) == 0 {
		t.Fatalf("trace download = %d, %d bytes", resp.StatusCode, len(trace))
	}

	// List shows the run; delete removes it.
	var list struct {
		Runs []Status `json:"runs"`
	}
	doJSON(t, http.MethodGet, srv.URL+"/runs", nil, http.StatusOK, &list)
	if len(list.Runs) != 1 || list.Runs[0].ID != created.ID {
		t.Fatalf("list = %+v", list.Runs)
	}
	doJSON(t, http.MethodDelete, srv.URL+"/runs/"+created.ID, nil, http.StatusNoContent, nil)
	doJSON(t, http.MethodGet, srv.URL+"/runs/"+created.ID, nil, http.StatusNotFound, nil)
}

func TestHTTPValidation(t *testing.T) {
	_, srv := newTestServer(t, 1)

	// Unknown field.
	doJSON(t, http.MethodPost, srv.URL+"/runs", map[string]any{
		"specc": map[string]any{},
	}, http.StatusBadRequest, nil)
	// Spec that fails Validate.
	doJSON(t, http.MethodPost, srv.URL+"/runs", map[string]any{
		"spec": map[string]any{"nodes": -3},
	}, http.StatusBadRequest, nil)
	// Bad duration form.
	doJSON(t, http.MethodPost, srv.URL+"/runs", map[string]any{
		"spec": map[string]any{"duration": "yesterday"},
	}, http.StatusBadRequest, nil)
	// Negative duration: invalid, not the 24 h default.
	doJSON(t, http.MethodPost, srv.URL+"/runs", map[string]any{
		"spec": map[string]any{"duration": "-1h"},
	}, http.StatusBadRequest, nil)
	// Unknown run.
	doJSON(t, http.MethodGet, srv.URL+"/runs/r404", nil, http.StatusNotFound, nil)
	doJSON(t, http.MethodPost, srv.URL+"/runs/r404/start", nil, http.StatusNotFound, nil)

	var health struct {
		Status string `json:"status"`
	}
	doJSON(t, http.MethodGet, srv.URL+"/healthz", nil, http.StatusOK, &health)
	if health.Status != "ok" {
		t.Fatalf("healthz = %+v", health)
	}
}

// TestHTTPStartRejectsOversizedWorld pins the grid-size guard end to end:
// an area whose contact grid cannot be indexed must fail the start request
// with a 400 — not a panic that drops the connection — leave the run
// retryable in "created", and leave no trace spool behind.
func TestHTTPStartRejectsOversizedWorld(t *testing.T) {
	dir := t.TempDir()
	store := NewStore(1, dir)
	srv := httptest.NewServer(NewServer(store))
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})

	var created Status
	doJSON(t, http.MethodPost, srv.URL+"/runs", map[string]any{
		"spec":  map[string]any{"area_km2": 1e12},
		"trace": true,
	}, http.StatusCreated, &created)
	doJSON(t, http.MethodPost, srv.URL+"/runs/"+created.ID+"/start", nil, http.StatusBadRequest, nil)
	var st Status
	doJSON(t, http.MethodGet, srv.URL+"/runs/"+created.ID, nil, http.StatusOK, &st)
	if st.State != StateCreated {
		t.Fatalf("state after a rejected start = %q, want %q", st.State, StateCreated)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("rejected start left %d files in the spool directory: %v", len(left), left)
	}
}

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	event string
	data  string
}

// readSSE parses frames off a live event stream.
func readSSE(br *bufio.Reader) (sseFrame, error) {
	var f sseFrame
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return f, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "" && f.event != "":
			return f, nil
		case strings.HasPrefix(line, "event: "):
			f.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			f.data = strings.TrimPrefix(line, "data: ")
		}
	}
}

func TestHTTPStreamDeliversHeartbeatsAndEnd(t *testing.T) {
	_, srv := newTestServer(t, 1)

	// A run long enough to outlive the test, heartbeating fast so the
	// stream is lively without waiting wall-clock seconds.
	var created Status
	doJSON(t, http.MethodPost, srv.URL+"/runs", map[string]any{
		"spec": map[string]any{
			"nodes":              120,
			"keyword_pool":       40,
			"interests_per_node": 5,
			"area_km2":           1.5,
			"duration":           "24h",
			"heartbeat":          "20ms",
		},
	}, http.StatusCreated, &created)
	if created.Spec.Heartbeat != 20*time.Millisecond {
		t.Fatalf("heartbeat = %v, want the requested 20ms", created.Spec.Heartbeat)
	}
	doJSON(t, http.MethodPost, srv.URL+"/runs/"+created.ID+"/start", nil, http.StatusAccepted, nil)

	resp, err := http.Get(srv.URL + "/runs/" + created.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	heartbeats := 0
	sawStart := false
	deadline := time.After(30 * time.Second)
	cancelled := false
	for {
		type result struct {
			f   sseFrame
			err error
		}
		ch := make(chan result, 1)
		go func() {
			f, err := readSSE(br)
			ch <- result{f, err}
		}()
		var r result
		select {
		case r = <-ch:
		case <-deadline:
			t.Fatalf("stream stalled after %d heartbeats (cancelled=%v)", heartbeats, cancelled)
		}
		if r.err != nil {
			if cancelled && r.err == io.EOF {
				t.Fatal("stream closed without an end frame")
			}
			t.Fatal(r.err)
		}
		switch r.f.event {
		case "run_start":
			sawStart = true
			var meta struct {
				Nodes int `json:"nodes"`
			}
			if err := json.Unmarshal([]byte(r.f.data), &meta); err != nil || meta.Nodes != 120 {
				t.Fatalf("run_start data = %s (%v)", r.f.data, err)
			}
		case "heartbeat":
			heartbeats++
			if heartbeats >= 2 && !cancelled {
				// Live deltas observed; mid-run workload retarget, then stop.
				doJSON(t, http.MethodPost, srv.URL+"/runs/"+created.ID+"/workload",
					map[string]any{"mean_message_interval": "2m"}, http.StatusAccepted, nil)
				doJSON(t, http.MethodPost, srv.URL+"/runs/"+created.ID+"/cancel", nil, http.StatusAccepted, nil)
				cancelled = true
			}
		case "end":
			if !sawStart || heartbeats < 2 {
				t.Fatalf("stream ended early: start=%v heartbeats=%d", sawStart, heartbeats)
			}
			var end struct {
				State State `json:"state"`
			}
			if err := json.Unmarshal([]byte(r.f.data), &end); err != nil || end.State != StateCancelled {
				t.Fatalf("end frame = %s (%v), want cancelled", r.f.data, err)
			}
			st := waitHTTPState(t, srv.URL, created.ID, StateCancelled)
			if st.Spec.MeanMessageInterval != 2*time.Minute {
				t.Fatalf("workload update not reflected in spec: %v", st.Spec.MeanMessageInterval)
			}
			// Stream must now be closed server-side.
			if _, err := readSSE(br); err == nil {
				t.Fatal("stream still open after end frame")
			}
			return
		}
	}
}

func TestHTTPWorkloadBeforeStart(t *testing.T) {
	_, srv := newTestServer(t, 1)
	var created Status
	doJSON(t, http.MethodPost, srv.URL+"/runs", map[string]any{
		"spec": map[string]any{"nodes": 30, "keyword_pool": 40, "interests_per_node": 5, "duration": "5m"},
	}, http.StatusCreated, &created)
	doJSON(t, http.MethodPost, srv.URL+"/runs/"+created.ID+"/workload",
		map[string]any{"mean_message_interval": "2m"}, http.StatusConflict, nil)
}

// TestHTTPWorkloadRequiresInterval pins that a workload body without
// mean_message_interval — empty, or with the key misspelled — is a 400 that
// leaves a running run's interval alone, instead of reading as 0s and
// silently halting message generation. An explicit "0s" still pauses.
func TestHTTPWorkloadRequiresInterval(t *testing.T) {
	_, srv := newTestServer(t, 1)
	var created Status
	doJSON(t, http.MethodPost, srv.URL+"/runs", map[string]any{
		"spec": map[string]any{
			"nodes": 120, "keyword_pool": 40, "interests_per_node": 5,
			"area_km2": 1.5, "duration": "24h", "mean_message_interval": "45m",
		},
	}, http.StatusCreated, &created)
	const want = 45 * time.Minute
	doJSON(t, http.MethodPost, srv.URL+"/runs/"+created.ID+"/start", nil, http.StatusAccepted, nil)
	waitHTTPState(t, srv.URL, created.ID, StateRunning)

	url := srv.URL + "/runs/" + created.ID + "/workload"
	for _, body := range []string{`{}`, `{"mean_interval":"2m"}`} {
		doJSON(t, http.MethodPost, url, json.RawMessage(body), http.StatusBadRequest, nil)
	}
	var st Status
	doJSON(t, http.MethodGet, srv.URL+"/runs/"+created.ID, nil, http.StatusOK, &st)
	if st.Spec.MeanMessageInterval != want {
		t.Fatalf("interval after rejected bodies = %v, want %v", st.Spec.MeanMessageInterval, want)
	}

	doJSON(t, http.MethodPost, url, json.RawMessage(`{"mean_message_interval":"0s"}`), http.StatusAccepted, &st)
	if st.Spec.MeanMessageInterval != 0 {
		t.Fatalf("explicit 0s left the interval at %v", st.Spec.MeanMessageInterval)
	}
	doJSON(t, http.MethodPost, srv.URL+"/runs/"+created.ID+"/cancel", nil, http.StatusAccepted, nil)
	waitHTTPState(t, srv.URL, created.ID, StateCancelled)
}

func TestHTTPTraceConflictsBeforeFinish(t *testing.T) {
	_, srv := newTestServer(t, 1)
	var created Status
	doJSON(t, http.MethodPost, srv.URL+"/runs", map[string]any{
		"spec": map[string]any{
			"nodes": 120, "keyword_pool": 40, "interests_per_node": 5,
			"area_km2": 1.5, "duration": "24h",
		},
		"trace": true,
	}, http.StatusCreated, &created)

	url := fmt.Sprintf("%s/runs/%s/trace", srv.URL, created.ID)
	doJSON(t, http.MethodGet, url, nil, http.StatusConflict, nil)
	doJSON(t, http.MethodPost, srv.URL+"/runs/"+created.ID+"/start", nil, http.StatusAccepted, nil)
	waitHTTPState(t, srv.URL, created.ID, StateRunning)
	doJSON(t, http.MethodGet, url, nil, http.StatusConflict, nil)
	doJSON(t, http.MethodPost, srv.URL+"/runs/"+created.ID+"/cancel", nil, http.StatusAccepted, nil)
	waitHTTPState(t, srv.URL, created.ID, StateCancelled)

	// A cancelled run's partial trace is still downloadable.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancelled-run trace = %d, want 200", resp.StatusCode)
	}
}
