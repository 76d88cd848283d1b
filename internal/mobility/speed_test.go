package mobility

import (
	"testing"
	"time"

	"dtnsim/internal/sim"
	"dtnsim/internal/world"
)

// TestSpeedBoundedDisplacement is the kinetic-contact-detection foundation:
// every SpeedBounded model's actual per-step displacement must stay within
// MaxSpeed()·dt for arbitrary step sizes, including steps that cross
// waypoints and pauses.
func TestSpeedBoundedDisplacement(t *testing.T) {
	bounds := world.Rect{Width: 500, Height: 500}
	models := map[string]func(seed int64) SpeedBounded{
		"stationary": func(seed int64) SpeedBounded {
			return &Stationary{At: world.Point{X: 100, Y: 200}}
		},
		"random-waypoint": func(seed int64) SpeedBounded {
			w, err := NewRandomWaypoint(DefaultPedestrian(bounds), sim.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			return w
		},
	}
	steps := []time.Duration{
		100 * time.Millisecond, time.Second, 7 * time.Second, time.Minute,
	}
	for name, build := range models {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				m := build(seed)
				limit := m.MaxSpeed()
				prev := m.Position()
				for i := 0; i < 500; i++ {
					dt := steps[i%len(steps)]
					next := m.Advance(dt)
					moved := prev.Dist(next)
					// Tiny epsilon for the float accumulation inside
					// multi-leg steps; the engine's skin absorbs far more.
					if max := limit*dt.Seconds() + 1e-6; moved > max {
						t.Fatalf("seed %d step %d (%v): moved %.9f m > bound %.9f m",
							seed, i, dt, moved, max)
					}
					prev = next
				}
			}
		})
	}
}

// TestSpeedBoundedCoverage pins which models advertise the bound: the
// engine disables kinetic contact detection when any model lacks it, so a
// model silently gaining or losing the interface is a behaviour change.
func TestSpeedBoundedCoverage(t *testing.T) {
	pins, err := NewWaypoints([]TimedPoint{{T: time.Second, P: world.Point{X: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		model   Model
		bounded bool
	}{
		{"stationary", &Stationary{}, true},
		{"random-waypoint", mustRWP(t), true},
		{"waypoints", pins, false},
	} {
		if _, ok := tc.model.(SpeedBounded); ok != tc.bounded {
			t.Errorf("%s: SpeedBounded = %v, want %v", tc.name, ok, tc.bounded)
		}
	}
}

func mustRWP(t *testing.T) Model {
	t.Helper()
	w, err := NewRandomWaypoint(DefaultPedestrian(world.Rect{Width: 100, Height: 100}), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return w
}
