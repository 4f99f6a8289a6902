// Package sim runs the slotted AR-visualization simulation that couples a
// depth-selection policy, a frame arrival process, the depth→workload cost
// model, and the device's service process — the experiment engine behind
// Fig. 2 and every ablation. One slot is the paper's "unit time": frames
// arrive, the policy picks an Octree depth from the observed backlog, the
// chosen depth's workload joins the queue, and the device serves what it
// can.
package sim

import (
	"context"
	"errors"
	"fmt"

	"qarv/internal/delay"
	"qarv/internal/obs"
	"qarv/internal/policy"
	"qarv/internal/quality"
	"qarv/internal/queueing"
)

// SlotEvent is one slot's control decision and queue transition, emitted
// to observers as the loop runs so streaming/tracing consumers don't need
// to post-process full trajectories.
type SlotEvent struct {
	// Slot is the time step t.
	Slot int
	// Device indexes the device in multi-device runs; -1 in single runs.
	Device int
	// Backlog is Q(t) observed at the start of the slot.
	Backlog float64
	// Depth is the chosen d(t).
	Depth int
	// Utility is pa(d(t)).
	Utility float64
	// Arrived is the work enqueued this slot.
	Arrived float64
	// Served is the work served this slot.
	Served float64
	// Dropped is the work lost this slot: bounded-backlog overflow in
	// sim runs, lost frame bytes in offload runs (which still occupied
	// the uplink busy period even though they never delivered).
	Dropped float64
}

// Observer receives each slot's event synchronously from the loop
// goroutine; implementations must be fast or hand off to a channel.
type Observer func(SlotEvent)

// Config describes one simulation run.
type Config struct {
	// Policy picks the depth each slot.
	Policy policy.Policy
	// Arrivals yields frames per slot (the paper uses one frame per slot).
	Arrivals queueing.ArrivalProcess
	// Cost maps the chosen depth to per-frame workload a(d).
	Cost delay.CostModel
	// Utility scores the chosen depth pa(d) for the objective (1).
	Utility quality.UtilityModel
	// Service yields per-slot capacity b(t).
	Service delay.ServiceProcess
	// Slots is the horizon T.
	Slots int
	// MaxBacklog, when positive, bounds the queue (overflow drops work).
	MaxBacklog float64
	// Observer, when non-nil, receives every slot's event as it happens.
	Observer Observer
	// Metrics, when non-nil, accumulates run telemetry (slot counters,
	// backlog/utility/sojourn distributions) into the registry. Nil
	// disables metrics at the cost of one pointer check per slot.
	Metrics *obs.Registry
	// Recorder, when non-nil, receives slot-timestamped flight-recorder
	// records: per-slot spans, depth changes, and drop events.
	Recorder *obs.FlightRecorder
}

// Config validation errors.
var (
	ErrNilPolicy   = errors.New("sim: nil policy")
	ErrNilArrivals = errors.New("sim: nil arrival process")
	ErrNilCost     = errors.New("sim: nil cost model")
	ErrNilUtility  = errors.New("sim: nil utility model")
	ErrNilService  = errors.New("sim: nil service process")
	ErrBadSlots    = errors.New("sim: slot count must lie in [1, 2^28]")
)

// MaxSlots caps a Session-path horizon. Result keeps five per-slot
// series of Slots entries each, about 40 B per slot per device, so the
// cap already stands for about 11 GB per device; a larger count is
// rejected with ErrBadSlots instead of failing inside make.
const MaxSlots = 1 << 28

// checkSlots rejects horizons outside [1, MaxSlots].
func checkSlots(slots int) error {
	if slots <= 0 || slots > MaxSlots {
		return fmt.Errorf("%w: %d", ErrBadSlots, slots)
	}
	return nil
}

// Validate checks the configuration without running it (the Session API
// validates once at construction).
func (c *Config) Validate() error { return c.validate() }

func (c *Config) validate() error {
	switch {
	case c.Policy == nil:
		return ErrNilPolicy
	case c.Arrivals == nil:
		return ErrNilArrivals
	case c.Cost == nil:
		return ErrNilCost
	case c.Utility == nil:
		return ErrNilUtility
	case c.Service == nil:
		return ErrNilService
	}
	return checkSlots(c.Slots)
}

// Result holds the full trajectory of one run plus summary statistics.
type Result struct {
	PolicyName string

	// Per-slot series, each of length Slots.
	Backlog []float64 // Q(t) observed at the start of slot t
	Depth   []int     // d(t) chosen in slot t
	Arrived []float64 // work enqueued in slot t
	Served  []float64 // work served in slot t
	Utility []float64 // pa(d(t))

	// Frame accounting. Sojourns holds the exact sojourn distribution
	// of every completed frame (no per-frame records are kept).
	Sojourns queueing.SojournHistogram
	// DroppedWork is the work rejected by the bounded backlog;
	// DroppedFrames counts the frames that overflow removed whole from
	// the frame queue (they never complete).
	DroppedWork   float64
	DroppedFrames int
	MeanSojourn   float64
	Little        queueing.LittleEstimator

	// Summaries of the objective and constraint.
	TimeAvgUtility float64 // (1/T)·Σ pa(d(τ)) — objective (1)
	TimeAvgBacklog float64 // (1/T)·Σ Q(τ)   — constraint (2)
	FinalBacklog   float64
	MaxBacklog     float64
}

// Verdict classifies the backlog trajectory per Fig. 2(a).
func (r *Result) Verdict() (queueing.Verdict, error) {
	return queueing.ClassifyTrajectory(r.Backlog, 0)
}

// DepthHistogram counts slots per chosen depth.
func (r *Result) DepthHistogram() map[int]int {
	h := make(map[int]int)
	for _, d := range r.Depth {
		h[d]++
	}
	return h
}

// deviceRunner folds one device's kernel slots into a full Result for
// single-device (RunContext) and multi-device (RunMultiContext) runs:
// per-slot slices, the sojourn histogram, the Little estimator,
// telemetry, and observer events.
type deviceRunner struct {
	kernel Kernel
	res    *Result

	utilSum    float64
	backlogSum float64

	// tel is nil unless telemetry is enabled (see setTelemetry);
	// lastDepth lets the recorder log only depth *changes*.
	tel       *telemetry
	lastDepth int

	// onFrame, when non-nil, receives each completed frame
	// (MultiConfig.OnFrame).
	onFrame func(device int, c queueing.Completed)
}

func newDeviceRunner(dev Device, slots int) *deviceRunner {
	r := &deviceRunner{
		res: &Result{
			PolicyName: dev.Policy.Name(),
			Backlog:    make([]float64, slots),
			Depth:      make([]int, slots),
			Arrived:    make([]float64, slots),
			Served:     make([]float64, slots),
			Utility:    make([]float64, slots),
		},
	}
	r.kernel.Reset(dev)
	return r
}

// step advances the device one slot against the given service capacity.
// device tags the observer event (-1 for single-device runs).
func (r *deviceRunner) step(t int, capacity float64, device int, obs Observer) {
	s := r.kernel.Step(t, capacity)
	res := r.res
	res.Backlog[t] = s.Backlog
	r.backlogSum += s.Backlog
	if s.Backlog > res.MaxBacklog {
		res.MaxBacklog = s.Backlog
	}
	res.Depth[t] = s.Depth
	res.Utility[t] = s.Utility
	r.utilSum += s.Utility
	res.Arrived[t] = s.Arrived
	res.Served[t] = s.Served
	res.DroppedFrames += s.DroppedFrames
	for _, c := range s.Completed {
		res.Sojourns.Add(c.Sojourn)
		res.Little.ObserveCompletion(c.Sojourn)
		if r.onFrame != nil {
			r.onFrame(device, c)
		}
	}
	// Sample the queue at end of slot so L and W use the same clock
	// (a frame completing in its arrival slot contributes 0 to both).
	// λ counts only admitted frames: overflow-removed frames never
	// complete, so offering them to the estimator would fake a
	// Little's-law violation in exactly the drop regime.
	admitted := s.Frames - s.DroppedFrames
	if admitted < 0 {
		admitted = 0
	}
	res.Little.ObserveSlot(float64(r.kernel.Queued()), admitted)
	if tel := r.tel; tel != nil {
		tel.slots.Inc()
		tel.framesArrived.Add(int64(s.Frames))
		tel.framesCompleted.Add(int64(len(s.Completed)))
		tel.backlog.Observe(s.Backlog)
		tel.served.Observe(s.Served)
		tel.utility.Observe(s.Utility)
		for _, c := range s.Completed {
			tel.sojourn.Observe(float64(c.Sojourn))
		}
		if s.Dropped > 0 {
			tel.framesDropped.Add(int64(s.DroppedFrames))
			tel.rec.Event(int64(t), "sim", "drop", int64(device), s.Dropped)
		}
		if s.Depth != r.lastDepth {
			tel.rec.Event(int64(t), "sim", "depth", int64(device), float64(s.Depth))
			r.lastDepth = s.Depth
		}
		tel.rec.Span(int64(t), 1, "sim", "slot", int64(device), s.Backlog)
	}
	if obs != nil {
		obs(SlotEvent{
			Slot: t, Device: device, Backlog: s.Backlog, Depth: s.Depth,
			Utility: s.Utility, Arrived: s.Arrived, Served: s.Served, Dropped: s.Dropped,
		})
	}
}

// finalize fills the run summaries after the last slot.
func (r *deviceRunner) finalize(slots int) *Result {
	res := r.res
	res.DroppedWork = r.kernel.DroppedWork()
	res.FinalBacklog = r.kernel.Level()
	res.TimeAvgUtility = r.utilSum / float64(slots)
	res.TimeAvgBacklog = r.backlogSum / float64(slots)
	res.MeanSojourn = res.Sojourns.Mean()
	return res
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) { return RunContext(context.Background(), cfg) }

// RunContext executes the simulation under a context: the slot loop polls
// ctx once per queueing.PollEvery slots and aborts with the context's
// error, so even million-slot runs cancel promptly.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	dev := newDeviceRunner(Device{
		Policy: cfg.Policy, Cost: cfg.Cost, Utility: cfg.Utility,
		Arrivals: cfg.Arrivals, MaxBacklog: cfg.MaxBacklog,
	}, cfg.Slots)
	dev.setTelemetry(cfg.Metrics, cfg.Recorder)
	cancel := queueing.NewCancelCheck(ctx, 0)
	for t := 0; t < cfg.Slots; t++ {
		if err := cancel.Check(); err != nil {
			return nil, fmt.Errorf("sim: canceled at slot %d: %w", t, err)
		}
		dev.step(t, cfg.Service.Service(t), -1, cfg.Observer)
	}
	return dev.finalize(cfg.Slots), nil
}

// Compare runs the same scenario under several policies (fresh queues
// each) and returns results keyed by the order given.
func Compare(base Config, policies []policy.Policy) ([]*Result, error) {
	return CompareContext(context.Background(), base, policies)
}

// CompareContext is Compare under a cancelable context.
func CompareContext(ctx context.Context, base Config, policies []policy.Policy) ([]*Result, error) {
	out := make([]*Result, 0, len(policies))
	for _, p := range policies {
		cfg := base
		cfg.Policy = p
		r, err := RunContext(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("policy %q: %w", p.Name(), err)
		}
		out = append(out, r)
	}
	return out, nil
}
