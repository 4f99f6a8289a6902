package sim

import "qarv/internal/queueing"

// Kernel is one device's slot loop — the observe → decide → arrive →
// bound → serve → drop-tail cycle of Algorithm 1 over the device's own
// backlog and timestamped frame queue. Session runs (per-slot slices)
// and fleet sessions (streaming sketches) both fold its Slot values, so
// the queue dynamics exist exactly once.
type Kernel struct {
	dev     Device
	backlog queueing.Backlog
	frames  queueing.FrameQueue
	// slot is Step's result, held here because returning the 88-byte
	// Slot by value costs a memory copy per slot in the callers.
	slot Slot
}

// Slot is one kernel step: the control decision and queue transition of
// slot t.
type Slot struct {
	// Backlog is Q(t) observed at the start of the slot.
	Backlog float64
	// Depth is the chosen d(t).
	Depth int
	// Utility is pa(d(t)).
	Utility float64
	// Frames is the number of frames offered (negative counts from
	// custom arrival processes clamp to zero).
	Frames int
	// Arrived, Served, and Dropped are the work enqueued, served, and
	// rejected by the bounded backlog this slot.
	Arrived, Served, Dropped float64
	// DroppedFrames counts the frames overflow removed whole from the
	// frame queue; they never complete.
	DroppedFrames int
	// Completed lists the frames finished this slot. It aliases the
	// kernel's frame-queue buffer and is overwritten by the next Step.
	Completed []queueing.Completed
}

// Reset arms the kernel for a fresh device: an empty queue bounded by
// dev.MaxBacklog (unbounded when not positive). The frame queue keeps
// its buffers, so a kernel reused across sessions stops allocating once
// warm. A Kernel must be Reset before its first Step.
func (k *Kernel) Reset(dev Device) {
	k.dev = dev
	k.backlog = *queueing.NewBoundedBacklog(dev.MaxBacklog)
	k.frames.Reset()
}

// Step advances the device one slot against the given service capacity.
// The returned Slot belongs to the kernel and is valid until the next
// Step.
func (k *Kernel) Step(t int, capacity float64) *Slot {
	q := k.backlog.Level()         // line 4 of Algorithm 1: observe Q(t)
	d := k.dev.Policy.Decide(t, q) // lines 5–11: closed-form decision
	u := k.dev.Utility.Utility(d)

	// Arrivals at the chosen depth, clamped so a negative count can't
	// drive λ (and LawGap) negative.
	n := k.dev.Arrivals.Frames(t)
	if n < 0 {
		n = 0
	}
	var work float64
	for i := 0; i < n; i++ {
		w := k.dev.Cost.FrameCost(d)
		work += w
		k.frames.Push(w, d, t)
	}

	// Service. When the bounded backlog rejects part of the slot's
	// arrivals, the same amount is dropped tail-first from the frame
	// queue so FrameQueue.WorkBacklog tracks Backlog.Level exactly and
	// sojourn statistics never count work that was never admitted.
	droppedBefore := k.backlog.TotalDropped()
	served := k.backlog.Step(work, capacity)
	dropped := k.backlog.TotalDropped() - droppedBefore
	droppedFrames := 0
	if dropped > 0 {
		droppedFrames, _ = k.frames.DropTail(dropped)
	}
	// Field stores: assigning a Slot literal would build it in a
	// temporary and copy it.
	s := &k.slot
	s.Backlog, s.Depth, s.Utility, s.Frames = q, d, u, n
	s.Arrived, s.Served, s.Dropped, s.DroppedFrames = work, served, dropped, droppedFrames
	s.Completed = k.frames.Serve(served, t)
	return s
}

// Level returns the current backlog — Q(t+1) after Step(t).
func (k *Kernel) Level() float64 { return k.backlog.Level() }

// Queued returns the number of frames waiting or in service.
func (k *Kernel) Queued() int { return k.frames.Len() }

// DroppedWork returns the total work the bounded backlog has rejected.
func (k *Kernel) DroppedWork() float64 { return k.backlog.TotalDropped() }
