package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"dtnsim/internal/scenario"
)

// FuzzServeRequests sends arbitrary bytes as the body of every request that
// decodes one — POST /runs, PATCH /runs/{id} and POST /runs/{id}/workload —
// to a live handler. Runs are never started. Every answer must be a success
// or a 400/409: never a 5xx, a 404 for a run that exists, or a connection
// dropped by a handler panic. A run the body created must read back with
// the stored spec, in a form that re-encodes to the same bytes.
func FuzzServeRequests(f *testing.F) {
	for _, seed := range []string{
		`{"spec":{"nodes":30,"duration":"5m"},"trace":true}`,
		`{"spec":{"seed":9,"step":2000000000}}`,
		`{"mean_message_interval":"2m"}`,
		`{"mean_message_interval":"0s"}`,
		// Workload bodies that once read as a 0s interval.
		`{}`,
		`{"mean_interval":"2m"}`,
		// A body written against older specs, whose parallelism, table-cap
		// and skin keys are gone and must be ignored.
		`{"spec":{"nodes":50,"area_km2":0.5,"workers":2,"regions":4,"table_cap":64,"contact_skin":12.5}}`,
		`{"spec":{"area_km2":1e300,"duration":-1,"scheme":1}}`,
		`null`,
		`{"specc":{}}`,
	} {
		f.Add([]byte(seed))
	}
	store := NewStore(1, f.TempDir())
	srv := httptest.NewServer(NewServer(store))
	f.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	f.Fuzz(func(t *testing.T, body []byte) {
		base, err := store.Create(quickSpec(), false)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Delete(base.ID)
		for _, req := range []struct{ method, path string }{
			{http.MethodPost, "/runs"},
			{http.MethodPatch, "/runs/" + base.ID},
			{http.MethodPost, "/runs/" + base.ID + "/workload"},
		} {
			code, raw := fuzzDo(t, req.method, srv.URL+req.path, body)
			switch code {
			case http.StatusOK, http.StatusCreated, http.StatusAccepted, http.StatusBadRequest, http.StatusConflict:
			default:
				t.Fatalf("%s %s = %d (%s)", req.method, req.path, code, raw)
			}
			if code != http.StatusCreated {
				continue
			}
			var created Status
			if err := json.Unmarshal(raw, &created); err != nil {
				t.Fatalf("201 body %s: %v", raw, err)
			}
			defer store.Delete(created.ID)
			checkSpecEcho(t, store, srv.URL, created.ID)
		}
	})
}

// fuzzDo sends body verbatim and returns the status and response body.
func fuzzDo(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, url, err)
	}
	return resp.StatusCode, raw
}

// checkSpecEcho reads run id back over GET and requires its spec to equal
// the stored one and to re-encode to the bytes it was served as.
func checkSpecEcho(t *testing.T, store *Store, base, id string) {
	t.Helper()
	code, raw := fuzzDo(t, http.MethodGet, base+"/runs/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("GET /runs/%s = %d (%s)", id, code, raw)
	}
	var got struct {
		Spec json.RawMessage `json:"spec"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("GET /runs/%s body %s: %v", id, raw, err)
	}
	var spec scenario.Spec
	if err := json.Unmarshal(got.Spec, &spec); err != nil {
		t.Fatalf("served spec %s does not decode: %v", got.Spec, err)
	}
	run, err := store.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if want := run.Spec(); !reflect.DeepEqual(spec, want) {
		t.Fatalf("served spec decodes to %+v, stored spec is %+v", spec, want)
	}
	again, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("served spec %s does not re-encode: %v", got.Spec, err)
	}
	if !bytes.Equal(again, got.Spec) {
		t.Fatalf("spec changed over a round trip:\n served %s\n again  %s", got.Spec, again)
	}
}
