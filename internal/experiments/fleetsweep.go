package experiments

import (
	"qarv/internal/delay"
	"qarv/internal/fleet"
	"qarv/internal/geom"
	"qarv/internal/policy"
)

// ---------------------------------------------------------------------------
// Fleet device classes from a calibrated scenario
// ---------------------------------------------------------------------------
//
// A single-device V grid (AxisV on the pool backend) shows the tradeoff
// on one trajectory; a deployment cares about the population: what
// fraction of ten thousand heterogeneous sessions stabilizes, and where
// the tail backlog/latency quantiles land, as V moves. The same AxisV
// grid on BackendFleet answers that from the streaming fleet sketches;
// FleetProfile builds the scenario's device class for hand-assembled
// fleet mixes.

// FleetProfile builds a fleet device class from the calibrated scenario:
// the proposed controller at vFactor × the calibrated V, one frame per
// slot, constant service at the calibrated rate. Callers may override
// any field of the returned profile (e.g. swap NewArrivals for a bursty
// process) before adding it to a mix.
func (s *Scenario) FleetProfile(name string, weight, vFactor float64) fleet.Profile {
	v := s.V * vFactor
	return fleet.Profile{
		Name:   name,
		Weight: weight,
		NewPolicy: func(*geom.RNG) (policy.Policy, error) {
			return s.ControllerWithV(v)
		},
		Cost:    s.Cost,
		Utility: s.Utility,
		NewService: func(*geom.RNG) delay.ServiceProcess {
			return &delay.ConstantService{Rate: s.ServiceRate}
		},
	}
}
