package main

import (
	"context"
	"testing"
	"time"

	"qarv/internal/alloc"
)

// TestOpenLoopCountsStalls injects a stall into one send and requires
// the frames queued behind it to carry the stall in their latency,
// which counts from when each frame was due, while their round trip
// from the actual send stays short: timing from the send alone would
// hide the stall (coordinated omission).
func TestOpenLoopCountsStalls(t *testing.T) {
	const every = 2 * time.Millisecond
	const stall = 40 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	recs := schedule(start, 40*time.Millisecond, 0, every, every)
	err := openLoop(context.Background(), recs, func(r *frameRecord) error {
		if r.id == 5 {
			time.Sleep(stall)
		}
		r.acked = time.Now() // an instant ack after the write
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	next := recs[6]
	if got := next.latency(); got < stall-2*every {
		t.Errorf("frame behind the stall: latency %v, want at least %v", got, stall-2*every)
	}
	if rtt := next.acked.Sub(next.sent); rtt > 5*time.Millisecond {
		t.Errorf("frame behind the stall: round trip %v, want near zero", rtt)
	}
	if late := next.sent.Sub(next.intended); late < stall-2*every {
		t.Errorf("generator lateness %v not recorded", late)
	}
	if got := recs[2].latency(); got > stall/2 {
		t.Errorf("frame before the stall: latency %v, want small", got)
	}
}

// TestScheduleSplitsPhases checks the light/heavy schedule layout.
func TestScheduleSplitsPhases(t *testing.T) {
	start := time.Now()
	recs := schedule(start, 10*time.Millisecond, 10*time.Millisecond, 5*time.Millisecond, 2*time.Millisecond)
	var light, heavy int
	for i, r := range recs {
		if int(r.id) != i {
			t.Fatalf("record %d has id %d", i, r.id)
		}
		if r.phase == 0 {
			light++
		} else {
			heavy++
		}
	}
	if light != 2 || heavy != 5 {
		t.Errorf("light %d heavy %d frames, want 2 and 5", light, heavy)
	}
	if got := recs[2].intended.Sub(start); got != 10*time.Millisecond {
		t.Errorf("heavy phase starts at %v, want 10ms", got)
	}
}

// TestEdgePassAcksEveryFrame drives a short pass against a live server
// and requires every frame acked in time and the server's counters to
// match what was sent.
func TestEdgePassAcksEveryFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a live server for a second")
	}
	rig, err := newEdgeRig(1, alloc.EqualSplit{})
	if err != nil {
		t.Fatal(err)
	}
	chk := &checker{}
	run, err := rig.runPass(context.Background(), time.Second, chk)
	rig.close()
	if err != nil {
		t.Fatal(err)
	}
	run.check(chk)
	if chk.failed != 0 {
		t.Fatalf("%d of %d checks failed: %s", chk.failed, chk.attempted, chk.first)
	}
	light, heavy, _ := run.phaseLatencies()
	if len(light) == 0 || len(heavy) == 0 || run.acked() != int64(len(light)+len(heavy)) {
		t.Errorf("light %d heavy %d acked %d", len(light), len(heavy), run.acked())
	}
	if run.stats.FramesServed != int(run.acked()) {
		t.Errorf("server served %d frames, %d acked", run.stats.FramesServed, run.acked())
	}
}
