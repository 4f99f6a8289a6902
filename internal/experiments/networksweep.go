package experiments

import (
	"context"
	"errors"

	"qarv/internal/fleet"
)

// ---------------------------------------------------------------------------
// ABL-NET — stability/utility vs. bandwidth volatility
// ---------------------------------------------------------------------------
//
// Every prior ablation held the network fixed: a constant service rate
// (or uplink bandwidth) calibrated so the deepest depth is unstable.
// The related work the repo tracks (Ren et al.'s edge-MAR architecture,
// Chen et al.'s QoS-constrained allocation) centers on links whose
// capacity moves; this sweep quantifies what that motion costs. Each
// point runs a fleet whose sessions see a Markov-modulated (good/bad)
// capacity with the *same mean* as the calibrated rate — a
// mean-preserving spread, so rising volatility isolates variance from
// provisioning. As volatility rises, bad-state dwells back the queue
// up, the controller buys stability with shallower depths, and the
// fleet's time-average utility degrades while tail backlogs grow.

// NetworkSweepRow is one volatility point of the ablation.
type NetworkSweepRow struct {
	// Volatility is the capacity spread v: the good state serves at
	// (1+v)× and the bad state at (1−v)× the calibrated rate.
	Volatility float64
	// GoodRate and BadRate are the two absolute capacity levels.
	GoodRate, BadRate float64
	// Fleet-wide aggregates (see fleet.QuantileSummary semantics).
	MeanUtility float64
	MeanBacklog float64
	P95Backlog  float64
	P99Sojourn  float64
	Sessions    int64
	Verdicts    fleet.VerdictCounts
}

// ErrBadVolatility reports a volatility that is NaN or outside [0, 1).
var ErrBadVolatility = errors.New("experiments: volatility must be finite and lie in [0, 1)")

// NetworkSweep runs a fleet per volatility point, every session drawing
// its capacity from an independent mean-preserving Markov (good/bad)
// chain around the calibrated service rate, and summarizes the
// population through the fleet sketches. Mean utility degrades and tail
// backlog grows monotonically as volatility rises — the dynamic-network
// cost curve. Zero sessions/slots take 256 sessions × 2× the scenario
// horizon; nil volatilities take {0, 0.3, 0.6, 0.9}.
func NetworkSweep(s *Scenario, volatilities []float64, sessions, slots int, seed uint64) ([]NetworkSweepRow, error) {
	return NetworkSweepContext(context.Background(), s, volatilities, sessions, slots, seed)
}

// NetworkSweepContext is NetworkSweep under a cancelable context,
// honored inside every shard's slot loops. It is a thin wrapper over
// the sweep engine: a one-axis AxisNetwork grid of mean-preserving
// NetworkMarkov shapes on the fleet backend, every cell pinned to the
// caller's seed (the legacy contract: each volatility point replays the
// same population).
func NetworkSweepContext(ctx context.Context, s *Scenario, volatilities []float64, sessions, slots int, seed uint64) ([]NetworkSweepRow, error) {
	if len(volatilities) == 0 {
		volatilities = []float64{0, 0.3, 0.6, 0.9}
	}
	if sessions <= 0 {
		sessions = 256
	}
	if slots <= 0 {
		slots = 2 * s.Params.Slots
	}
	// Symmetric transition probabilities (NetworkMarkov): the stationary
	// split is 50/50, so the mean capacity equals the calibrated rate at
	// every volatility — only the variance moves. Mean dwell 10 slots
	// per state, long enough for bad states to back the queue up, short
	// enough to mix over the horizon.
	nets := make([]SweepNetwork, len(volatilities))
	for i, v := range volatilities {
		nets[i] = NetworkMarkov(v)
	}
	ax := AxisNetwork(nets...)
	for i, v := range volatilities {
		ax.Points[i].Value = v
		ax.Points[i].Numeric = true
	}
	sw, err := NewSweep(s, ax)
	if err != nil {
		return nil, err
	}
	sw.Backend = BackendFleet(sessions)
	sw.Slots = slots
	sw.Seed = seed
	sw.Configure(func(c *SweepCell) error { c.Seed = seed; return nil })
	rep, err := sw.Run(ctx)
	if err != nil {
		return nil, err
	}
	rate := s.ServiceRate
	rows := make([]NetworkSweepRow, 0, len(volatilities))
	for i, v := range volatilities {
		r := rep.Rows[i]
		rows = append(rows, NetworkSweepRow{
			Volatility:  v,
			GoodRate:    rate * (1 + v),
			BadRate:     rate * (1 - v),
			MeanUtility: r.Utility,
			MeanBacklog: r.Backlog,
			P95Backlog:  r.P95Backlog,
			P99Sojourn:  r.P99Sojourn,
			Sessions:    r.Sessions,
			Verdicts:    r.Verdicts,
		})
	}
	return rows, nil
}
