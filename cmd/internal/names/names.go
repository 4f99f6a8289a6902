// Package names maps the CLI-facing allocator and policy grammars
// shared by qarvsim, qarvfleet, and qarvsweep onto the qarv facade, so
// the three commands parse one grammar, print one enumeration in flag
// help, and fail with errors that list every valid name.
package names

import (
	"fmt"
	"strconv"
	"strings"

	"qarv"
)

// allocSeedSalt decorrelates a learning allocator's arm draws from the
// run's other seeded streams.
const allocSeedSalt = 0x616c6c6f63 // "alloc"

// Allocator resolves a CLI allocator name — static builtins or
// parameterized learners — and seeds any learning allocator from the
// run seed, so repeated runs replay the same learned trajectory.
func Allocator(name string, seed uint64) (qarv.Allocator, error) {
	a, err := qarv.AllocatorByName(name)
	if err != nil {
		return nil, err
	}
	if r, ok := a.(interface{ Reseed(*qarv.RNG) }); ok {
		r.Reseed(qarv.NewRNG(seed ^ allocSeedSalt))
	}
	return a, nil
}

// AllocatorUsage enumerates every allocator name for flag help.
func AllocatorUsage() string { return strings.Join(qarv.AllocatorNames(), ", ") }

// PolicyUsage enumerates every policy name Policy accepts for flag
// help: the sweep grammar plus qarvsim's fixed-depth form.
func PolicyUsage() string {
	return strings.Join(qarv.SweepPolicyNames(), ", ") + ", fixed:N"
}

// Spec resolves a sweep policy token; errors enumerate the grammar.
func Spec(name string) (qarv.PolicySpec, error) { return qarv.SweepPolicyByName(name) }

// Policy builds a runnable policy over a calibrated scenario: the Spec
// grammar plus "fixed:N", with vOverride (when non-zero) replacing the
// calibrated V of the proposed controller; a negative or non-finite
// override is rejected by the controller. Stochastic policies draw
// from a stream derived from seed.
func Policy(scn *qarv.Scenario, name string, vOverride float64, seed uint64) (qarv.Policy, error) {
	switch {
	case name == "proposed" && vOverride != 0:
		return scn.ControllerWithV(vOverride)
	case strings.HasPrefix(name, "fixed:"):
		d, err := strconv.Atoi(strings.TrimPrefix(name, "fixed:"))
		if err != nil {
			return nil, fmt.Errorf("bad fixed depth %q: %w", name, err)
		}
		return &qarv.FixedDepth{Depth: d}, nil
	}
	spec, err := qarv.SweepPolicyByName(name)
	if err != nil {
		return nil, fmt.Errorf("%w (or fixed:N)", err)
	}
	return spec.New(scn, qarv.NewRNG(seed))
}

// List splits a comma-separated flag value, trimming whitespace and
// dropping empty entries.
func List(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
