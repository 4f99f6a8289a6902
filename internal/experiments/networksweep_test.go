package experiments

import (
	"context"
	"errors"
	"testing"
)

// networkGrid builds the volatility ablation: AxisNetwork over
// mean-preserving NetworkMarkov shapes on the fleet backend, every cell
// pinned to one seed so each volatility point replays the same
// population.
func networkGrid(t *testing.T, s *Scenario, volatilities []float64, sessions, slots int, seed uint64) *Sweep {
	t.Helper()
	nets := make([]SweepNetwork, len(volatilities))
	for i, v := range volatilities {
		nets[i] = NetworkMarkov(v)
	}
	sw := newGrid(t, s, slots, AxisNetwork(nets...))
	sw.Backend = BackendFleet(sessions)
	sw.Seed = seed
	sw.Configure(func(c *SweepCell) error { c.Seed = seed; return nil })
	return sw
}

// TestNetworkSweepMonotoneDegradation pins the acceptance property of
// the dynamic-network subsystem: under a mean-preserving capacity
// spread, rising bandwidth volatility monotonically degrades the
// fleet — time-average utility falls and the tail (P95) backlog grows.
// The runs are fully deterministic per seed, so this is a stable pin,
// not a statistical flake.
func TestNetworkSweepMonotoneDegradation(t *testing.T) {
	s := sharedScenario(t)
	vols := []float64{0, 0.45, 0.9}
	rows := runGrid(t, networkGrid(t, s, vols, 48, 2*s.Params.Slots, 1))
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Utility > rows[i-1].Utility+1e-9 {
			t.Errorf("mean utility rose with volatility: %v (v=%g) -> %v (v=%g)",
				rows[i-1].Utility, vols[i-1], rows[i].Utility, vols[i])
		}
		if rows[i].P95Backlog < rows[i-1].P95Backlog-1e-9 {
			t.Errorf("P95 backlog fell with volatility: %v (v=%g) -> %v (v=%g)",
				rows[i-1].P95Backlog, vols[i-1], rows[i].P95Backlog, vols[i])
		}
	}
	// The spread must actually cost something, not just not-improve.
	if rows[2].Utility >= rows[0].Utility {
		t.Errorf("volatility 0.9 did not degrade utility: %v vs %v at 0",
			rows[2].Utility, rows[0].Utility)
	}
	if rows[2].P95Backlog <= rows[0].P95Backlog {
		t.Errorf("volatility 0.9 did not grow tail backlog: %v vs %v at 0",
			rows[2].P95Backlog, rows[0].P95Backlog)
	}
	// The v=0 point is the static-network baseline: a calibrated,
	// stabilizable fleet with no diverging sessions.
	if rows[0].Verdicts.Diverging != 0 {
		t.Errorf("static baseline diverging sessions: %d", rows[0].Verdicts.Diverging)
	}
	for i, r := range rows {
		if r.Sessions != 48 {
			t.Errorf("v=%g: %d sessions, want 48", vols[i], r.Sessions)
		}
	}
}

func TestNetworkSweepRejectsBadVolatility(t *testing.T) {
	s := sharedScenario(t)
	for _, vols := range [][]float64{{0.5, 1.0}, {-0.1}} {
		sw := networkGrid(t, s, vols, 4, 50, 1)
		if _, err := sw.Run(context.Background()); !errors.Is(err, ErrBadVolatility) {
			t.Errorf("volatilities %v: %v", vols, err)
		}
	}
}
