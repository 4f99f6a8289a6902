package experiments

import (
	"fmt"
	"slices"
	"testing"

	"qarv/internal/geom"
)

// TestPolicyByNameRejectsBadNames: malformed or out-of-range slot
// counts fail at lookup, before any policy is built; the cap itself is
// accepted.
func TestPolicyByNameRejectsBadNames(t *testing.T) {
	for _, bad := range []string{
		"", "nosuch", "proposed:1", "predictive:0", "predictive:x", "delayed:-3",
		"delayed:1.5", fmt.Sprintf("delayed:%d", maxPolicySlots+1),
		"delayed:9223372036854775807", "predictive:9223372036854775807",
		"predictive-delayed:9223372036854775807",
	} {
		if _, err := PolicyByName(bad); err == nil {
			t.Errorf("PolicyByName(%q) succeeded, want error", bad)
		}
	}
	for _, base := range []string{"predictive", "delayed", "predictive-delayed"} {
		name := fmt.Sprintf("%s:%d", base, maxPolicySlots)
		if _, err := PolicyByName(name); err != nil {
			t.Errorf("%s (the slot cap): %v", name, err)
		}
	}
}

// FuzzPolicyByName fuzzes the policy name grammar: every name either
// errors or yields a policy that, built over the test scenario, picks a
// depth from the scenario's candidate set on each of 64 slots.
func FuzzPolicyByName(f *testing.F) {
	for _, name := range []string{
		"proposed", "max", "min", "random", "threshold", "oracle",
		"predictive", "predictive:1", "delayed:8", "predictive-delayed:6",
		"delayed:65536", "delayed:9223372036854775807", "predictive:-1", "fixed:7", "",
	} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		spec, err := PolicyByName(name)
		if err != nil {
			return
		}
		s := sharedScenario(t)
		pol, err := spec.New(s, geom.NewRNG(1))
		if err != nil {
			t.Fatalf("%q: accepted name failed to build: %v", name, err)
		}
		for slot := 0; slot < 64; slot++ {
			// Ramp up, spike, then drain to zero.
			backlog := float64(slot) * 1e4
			switch {
			case slot == 40:
				backlog = 1e300
			case slot > 40:
				backlog = 0
			}
			if d := pol.Decide(slot, backlog); !slices.Contains(s.Params.Depths, d) {
				t.Fatalf("%q slot %d: depth %d not in %v", name, slot, d, s.Params.Depths)
			}
		}
	})
}
