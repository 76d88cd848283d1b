package scenario

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"dtnsim/internal/core"
)

func TestSpecJSONRoundTrip(t *testing.T) {
	orig := Default(core.SchemeChitChat)
	orig.Nodes = 42
	orig.SelfishPercent = 20
	orig.MaliciousPercent = 10
	orig.MaliciousLowQuality = true
	orig.ClassSplit = true
	orig.CommanderPercent = 5
	orig.Seed = 7
	orig.Heartbeat = 200 * time.Millisecond
	orig.Duration = 90 * time.Minute
	orig.AreaKm2 = 0.5
	orig.InitialTokens = 150
	orig.MeanMessageInterval = 3 * time.Minute
	orig.RouterName = "epidemic"
	orig.DisableReputation = true
	orig.PlainBuffers = true
	orig.Step = 2 * time.Second
	orig.BatteryJoules = 900
	orig.BetaReputation = true

	b, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var got Spec
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, orig)
	}
}

func TestSpecJSONMergesOntoReceiver(t *testing.T) {
	spec := Default(core.SchemeIncentive)
	// "workers", "regions", "table_cap" and "contact_skin" are retired keys
	// from older specs: bodies that still carry them must decode, ignoring
	// them.
	body := []byte(`{"nodes": 50, "duration": "2h", "scheme": "chitchat", "selfish_percent": 30, "workers": 2, "regions": 4, "table_cap": 64, "contact_skin": 12.5}`)
	if err := json.Unmarshal(body, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.Nodes != 50 || spec.Duration != 2*time.Hour || spec.SelfishPercent != 30 {
		t.Errorf("overrides not applied: %+v", spec)
	}
	if spec.Scheme != core.SchemeChitChat {
		t.Errorf("scheme = %v, want chitchat", spec.Scheme)
	}
	// Absent fields keep the Default values.
	if spec.KeywordPool != 200 || spec.InterestsPerNode != 20 || spec.SelfishOpenProb != 0.1 || spec.Seed != 1 {
		t.Errorf("defaults clobbered by absent fields: %+v", spec)
	}
}

func TestSpecJSONDurationForms(t *testing.T) {
	var spec Spec
	if err := json.Unmarshal([]byte(`{"duration": "90s", "step": 2000000000}`), &spec); err != nil {
		t.Fatal(err)
	}
	if spec.Duration != 90*time.Second || spec.Step != 2*time.Second {
		t.Errorf("durations = %v / %v, want 90s / 2s", spec.Duration, spec.Step)
	}
	if err := json.Unmarshal([]byte(`{"duration": "not-a-duration"}`), &spec); err == nil {
		t.Error("malformed duration accepted")
	}
	if err := json.Unmarshal([]byte(`{"scheme": "bogus"}`), &spec); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestSpecJSONCoversEveryField pins the wire shadow to the Spec struct:
// every Spec field must have a same-named counterpart in specJSON, so a
// new knob cannot silently miss the HTTP/config surface.
func TestSpecJSONCoversEveryField(t *testing.T) {
	shadow := reflect.TypeOf(specJSON{})
	shadowFields := make(map[string]bool, shadow.NumField())
	for i := 0; i < shadow.NumField(); i++ {
		shadowFields[shadow.Field(i).Name] = true
	}
	spec := reflect.TypeOf(Spec{})
	missing := 0
	for i := 0; i < spec.NumField(); i++ {
		name := spec.Field(i).Name
		if !shadowFields[name] {
			t.Errorf("Spec field %s has no specJSON counterpart", name)
			missing++
		}
	}
	if shadow.NumField() != spec.NumField() {
		t.Errorf("specJSON has %d fields, Spec has %d", shadow.NumField(), spec.NumField())
	}
	_ = missing
}

func TestBuildThreadsHeartbeat(t *testing.T) {
	spec := Default(core.SchemeIncentive)
	spec.Heartbeat = 7 * time.Second
	cfg, _, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Heartbeat != 7*time.Second {
		t.Errorf("Build dropped heartbeat: %v", cfg.Heartbeat)
	}
}
