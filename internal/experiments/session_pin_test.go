package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestSessionPathBytesPinned pins the bytes the Session path reports:
// the SHA-256 of the JSON encoding of an allocator × network grid (the
// perfbench session-sweep shape at a shorter horizon), a pool sim-cell
// grid, and a shared-uplink run. Any change to how per-slot or
// per-frame results are kept must leave these hashes unchanged.
func TestSessionPathBytesPinned(t *testing.T) {
	s := sharedScenario(t)
	nets := func() SweepAxis { return AxisNetwork(NetworkStatic(), NetworkMarkovDwell(0.8, 64)) }
	for _, tc := range []struct {
		name string
		axes []SweepAxis
		want string
	}{
		{
			name: "allocator-grid",
			axes: []SweepAxis{AxisAllocator("equal", "maxweight", "bandit:8", "gradient:0.2"), nets()},
			want: "1eea9ab2194d7524115b04b4bc457555a53e78109d2ed5c3bb51b4ff845fee59",
		},
		{
			name: "sim-grid",
			axes: []SweepAxis{AxisV(0.5, 2), nets()},
			want: "e6fceac662011a24bf9f9605e093f4262a8f147535ce81522bb4db36746b2870",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw, err := NewSweep(s, tc.axes...)
			if err != nil {
				t.Fatal(err)
			}
			sw.Slots = 2000
			sw.Seed = 1
			rep, err := sw.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256JSON(t, rep); got != tc.want {
				t.Errorf("report hash %s, want %s", got, tc.want)
			}
		})
	}
	t.Run("shared-uplink", func(t *testing.T) {
		res, err := SharedUplinkContext(context.Background(), SharedUplinkParams{
			Devices:  3,
			Samples:  40_000,
			Slots:    800,
			KneeSlot: 200,
			Seed:     3,
		})
		if err != nil {
			t.Fatal(err)
		}
		pinned := struct {
			PerDevice   []SharedUplinkDeviceRow
			MeanLatency float64
			P95Latency  float64
			LossCount   int
		}{res.PerDevice, res.MeanLatency, res.P95Latency, res.LossCount}
		const want = "dcc89a94bad606ae08dd5e5b0f7f1f623e559b0ef7ea0d22513432c27be932c2"
		if got := sha256JSON(t, pinned); got != want {
			t.Errorf("result hash %s, want %s", got, want)
		}
	})
}

// sha256JSON hashes v's JSON encoding (hex).
func sha256JSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
