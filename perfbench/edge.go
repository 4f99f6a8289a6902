package main

// edge-openloop: one in-process stream.Server whose shared budget is
// split by alloc.EqualSplit, with Validate on, fed by two loopback
// connections. A generator writes real octree streams — one depth per
// connection, so frame sizes differ — on a fixed schedule: a light
// phase at 40% of each connection's share, then a heavy phase at 80%.
// Latency counts from each frame's intended send time, so a stall in
// the generator or the server is charged to every frame queued behind
// it. Only this workload loads stream, live alloc, and octree decode.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"qarv/internal/alloc"
	"qarv/internal/octree"
	"qarv/internal/stream"
	"qarv/internal/synthetic"
)

// Edge workload shape.
const (
	edgeSamples = 60_000 // synthetic surface samples of the streamed body
	// edgeTx is how long the larger frame takes to transmit at its
	// share: the shared budget is sized from the payloads so that the
	// offered load does not depend on how many bytes the seed's body
	// happens to encode to. It is a trade: the shorter it is, the more
	// room the larger frames leave under the delay limit for a host
	// stall, but the more the fixed per-frame cost of pacing and acking
	// weighs on the smaller frames, which at 80% load then queue up
	// behind one another when the host is busy.
	edgeTx      = 30 * time.Millisecond
	edgeLight   = 0.4 // light-phase load, share of each connection's allocation
	edgeHeavy   = 0.8 // heavy-phase load
	edgeLightAt = 0.4 // light phase's share of the measured time
	delayLimit  = 100 * time.Millisecond
	ackDrain    = 2 * time.Second // how long acks may trail the last send
)

// edgeDepths are the octree depths the two connections stream.
var edgeDepths = [2]int{7, 6}

// frameRecord is one scheduled frame's life on the wire.
type frameRecord struct {
	id       uint32
	phase    int // 0 light, 1 heavy
	intended time.Time
	sent     time.Time // WriteFrame called
	written  time.Time // WriteFrame returned
	acked    time.Time // zero when never acknowledged
	shareBps uint64    // the connection's allocation the ack reported
}

// latency is the time from when the frame was due to its ack.
func (r *frameRecord) latency() time.Duration { return r.acked.Sub(r.intended) }

// schedule lays out one connection's frames: every interval of each
// phase, light then heavy, from start.
func schedule(start time.Time, lightFor, heavyFor, lightEvery, heavyEvery time.Duration) []*frameRecord {
	var recs []*frameRecord
	add := func(phase int, from, until, every time.Duration) {
		for at := from; at < until; at += every {
			recs = append(recs, &frameRecord{id: uint32(len(recs)), phase: phase, intended: start.Add(at)})
		}
	}
	add(0, 0, lightFor, lightEvery)
	add(1, lightFor, lightFor+heavyFor, heavyEvery)
	return recs
}

// openLoop sends every record at its intended time. It never re-bases
// the schedule: a frame that fell due while an earlier send was blocked
// goes out as soon as the sender is free, and its latency still counts
// from when it was due — so a stall is not hidden by the generator
// waiting on the system it measures (coordinated omission).
func openLoop(ctx context.Context, recs []*frameRecord, send func(*frameRecord) error) error {
	for _, r := range recs {
		if wait := r.intended.Sub(now()); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
		r.sent = now()
		if err := send(r); err != nil {
			return err
		}
		r.written = now()
	}
	return nil
}

// edgeConn is one device connection of the rig.
type edgeConn struct {
	conn    net.Conn
	payload []byte
	depth   int
}

// edgeRig is a running server with its two device connections.
type edgeRig struct {
	srv    *stream.Server
	budget float64 // shared uplink budget, bytes/s
	conns  []*edgeConn
}

// edgePayloads encodes the streamed body at both depths.
func edgePayloads(seed uint64) ([][]byte, error) {
	ch, err := synthetic.ByName("longdress")
	if err != nil {
		return nil, err
	}
	cloud, err := synthetic.Generate(synthetic.Config{
		Character: ch, SamplesTarget: edgeSamples, CaptureDepth: 10, Seed: seed + 1,
	}, synthetic.Pose{})
	if err != nil {
		return nil, err
	}
	tree, err := octree.Build(cloud, 10)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(edgeDepths))
	for i, d := range edgeDepths {
		if out[i], err = tree.SerializeWithColorsBytes(d); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// newEdgeRig encodes the payloads, starts a server with the given
// allocator, and dials both connections, returning once the server has
// admitted them.
func newEdgeRig(seed uint64, a alloc.Allocator) (*edgeRig, error) {
	payloads, err := edgePayloads(seed)
	if err != nil {
		return nil, err
	}
	largest := 0
	for _, p := range payloads {
		largest = max(largest, len(p))
	}
	budget := float64(len(payloads)*largest) / edgeTx.Seconds()
	srv, err := stream.Serve("127.0.0.1:0", stream.ServerConfig{Budget: budget, Allocator: a, Validate: true})
	if err != nil {
		return nil, err
	}
	rig := &edgeRig{srv: srv, budget: budget}
	for i, p := range payloads {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.conns = append(rig.conns, &edgeConn{conn: c, payload: p, depth: edgeDepths[i]})
	}
	for deadline := now().Add(5 * time.Second); srv.Stats().Live < len(payloads); {
		if now().After(deadline) {
			rig.close()
			return nil, errors.New("edge: server did not admit both connections")
		}
		time.Sleep(time.Millisecond)
	}
	return rig, nil
}

// close hangs up the devices and shuts the server down, waiting for
// every handler to exit.
func (r *edgeRig) close() {
	for _, c := range r.conns {
		_ = c.conn.Close() // the device side only hangs up
	}
	_ = r.srv.Close() // waits for every handler; a second close is harmless
}

// edgeRun is one measured pass over a rig.
type edgeRun struct {
	recs    [][]*frameRecord // per connection
	start   time.Time
	end     time.Time // last ack (or the drain deadline)
	cpu     time.Duration
	stats   stream.ServerStats
	offered uint64 // payload bytes written
}

// runPass drives both connections through the light and heavy phases
// and reads every ack. It returns when every frame is acked or the
// drain deadline passes.
func (r *edgeRig) runPass(ctx context.Context, d time.Duration, chk *checker) (*edgeRun, error) {
	share := r.budget / float64(len(r.conns)) // EqualSplit
	lightFor := time.Duration(float64(d) * edgeLightAt)
	heavyFor := d - lightFor
	run := &edgeRun{start: now().Add(20 * time.Millisecond)}
	for _, c := range r.conns {
		tx := time.Duration(float64(len(c.payload)) / share * float64(time.Second))
		run.recs = append(run.recs, schedule(run.start, lightFor, heavyFor,
			time.Duration(float64(tx)/edgeLight), time.Duration(float64(tx)/edgeHeavy)))
	}
	deadline := run.start.Add(d + ackDrain)
	for _, c := range r.conns {
		// Bounds both the ack reads and a send blocked on a stalled server.
		if err := c.conn.SetDeadline(deadline); err != nil {
			return nil, err
		}
	}
	u0 := readUsage()
	var wg sync.WaitGroup
	errs := make([]error, 2*len(r.conns))
	acks := make([]checker, len(r.conns)) // one per reader goroutine
	for i, c := range r.conns {
		i, c := i, c
		recs := run.recs[i]
		wg.Add(2)
		go func() {
			defer wg.Done()
			errs[2*i] = openLoop(ctx, recs, func(fr *frameRecord) error {
				return stream.WriteFrame(c.conn, stream.Frame{ID: fr.id, Depth: uint8(c.depth), Payload: c.payload})
			})
		}()
		go func() {
			defer wg.Done()
			errs[2*i+1] = readAcks(c.conn, recs, len(c.payload), &acks[i])
		}()
	}
	wg.Wait()
	run.cpu = readUsage().cpu - u0.cpu
	for _, a := range acks {
		chk.merge(a)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	run.stats = r.srv.Stats()
	for i, c := range r.conns {
		for _, fr := range run.recs[i] {
			run.offered += uint64(len(c.payload))
			if fr.acked.After(run.end) {
				run.end = fr.acked
			}
		}
	}
	return run, nil
}

// readAcks reads one connection's acks until every frame is acked or
// the deadline passes, stamping each record and checking that the
// cumulative served bytes never go backwards and match the frames
// acknowledged so far.
func readAcks(conn net.Conn, recs []*frameRecord, frameBytes int, chk *checker) error {
	var prev uint64
	for n := 0; n < len(recs); n++ {
		_, ack, err := stream.ReadMessage(conn)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				return nil // unacked frames count as failures
			}
			return fmt.Errorf("edge: reading acks: %w", err)
		}
		if ack == nil || int(ack.FrameID) >= len(recs) {
			chk.check(false, "edge: unexpected message after %d acks", n)
			continue
		}
		r := recs[ack.FrameID]
		r.acked = now()
		r.shareBps = ack.AllocatedBps
		chk.check(ack.ServedBytes >= prev && ack.ServedBytes == uint64(ack.FrameID+1)*uint64(frameBytes),
			"edge: frame %d acked %d served bytes after %d", ack.FrameID, ack.ServedBytes, prev)
		prev = ack.ServedBytes
	}
	return nil
}

// phaseLatencies splits acked frames' latencies (ms) by phase and
// counts frames that were never acked or missed the delay limit.
func (run *edgeRun) phaseLatencies() (light, heavy []float64, missed int64) {
	for _, recs := range run.recs {
		for _, r := range recs {
			if r.acked.IsZero() || r.latency() > delayLimit {
				missed++
			}
			if r.acked.IsZero() {
				continue
			}
			ms := float64(r.latency()) / 1e6
			if r.phase == 0 {
				light = append(light, ms)
			} else {
				heavy = append(heavy, ms)
			}
		}
	}
	return light, heavy, missed
}

// check charges every frame as one attempt (failed when unacked or
// late) and checks the server's counters against what was sent.
func (run *edgeRun) check(chk *checker) {
	_, _, missed := run.phaseLatencies()
	var total int64
	for _, recs := range run.recs {
		total += int64(len(recs))
	}
	chk.attempted += total
	chk.failed += missed
	if missed > 0 && chk.first == "" {
		chk.first = fmt.Sprintf("edge: %d of %d frames unacked or later than %v", missed, total, delayLimit)
	}
	chk.check(run.stats.BytesServed == run.offered,
		"edge: server served %d bytes, %d sent", run.stats.BytesServed, run.offered)
	chk.check(run.stats.Corrupt == 0, "edge: %d corrupt frames", run.stats.Corrupt)
}

// heavyP50 is the heavy phase's median latency in ms.
func (run *edgeRun) heavyP50() float64 {
	_, heavy, _ := run.phaseLatencies()
	p, _ := percentile(heavy, 50)
	return p
}

// acked counts acknowledged frames.
func (run *edgeRun) acked() int64 {
	var n int64
	for _, recs := range run.recs {
		for _, r := range recs {
			if !r.acked.IsZero() {
				n++
			}
		}
	}
	return n
}

func runEdge(ctx context.Context, cfg runConfig) (*outcome, error) {
	var setups []time.Duration
	var rig *edgeRig
	for i := 0; i < setupReps; i++ {
		if rig != nil {
			rig.close()
		}
		t0 := now()
		r, err := newEdgeRig(cfg.seed, alloc.EqualSplit{})
		if err != nil {
			return nil, err
		}
		setups = append(setups, since(t0))
		rig = r
	}
	chk := &checker{}
	untraced, err := rig.runPass(ctx, cfg.seconds, chk)
	rig.close()
	if err != nil {
		return nil, err
	}
	untraced.check(chk)
	oc := &outcome{}
	if !cfg.trace {
		acked := untraced.acked()
		oc.endToEnd = map[string]float64{
			"setup_s":                medianSeconds(setups),
			"device_slots_per_s":     float64(acked) / untraced.end.Sub(untraced.start).Seconds(),
			"p50_ms":                 untraced.heavyP50(),
			"cpu_us_per_device_slot": float64(untraced.cpu) / 1e3 / float64(acked),
		}
	} else {
		allocs := &layer{}
		trig, err := newEdgeRig(cfg.seed, wrapAllocator(alloc.EqualSplit{}, allocs))
		if err != nil {
			return nil, err
		}
		traced, err := trig.runPass(ctx, cfg.seconds, chk)
		trig.close()
		if err != nil {
			return nil, err
		}
		traced.check(chk)
		oc.perLayer = edgeLayerMetrics(trig, traced, allocs)
		oc.perLayer["trace.overhead_pct"] = overheadPct(untraced.heavyP50(), traced.heavyP50())
	}
	oc.checker = *chk
	return oc, nil
}

// edgeLayerMetrics fills the edge's per-layer metrics from a traced
// pass. Its budget splits an acked frame's mean latency into generator
// lateness, WriteFrame time, octree decode (microbenchmarked), and the
// transmission time the allocated share implies; the gap is queueing,
// the loopback, and the ack path.
func edgeLayerMetrics(rig *edgeRig, run *edgeRun, allocs *layer) map[string]float64 {
	m := map[string]float64{}
	light, heavy, _ := run.phaseLatencies()
	m["edge.p50_ms_light"], _ = percentile(light, 50)
	m["edge.samples_light"] = float64(len(light))
	if p, ok := percentile(heavy, 99); ok {
		m["edge.p99_ms_heavy"] = p
	}
	m["edge.samples_heavy"] = float64(len(heavy))

	var late, write, rtt []float64
	var b budget
	for i, c := range rig.conns {
		decodeNs := microNs(16, func(int) float64 {
			dec, err := octree.DeserializeWithColorsBytes(c.payload)
			if err != nil {
				return 0
			}
			return float64(len(dec.Colors))
		})
		var shares []float64
		for _, r := range run.recs[i] {
			late = append(late, float64(r.sent.Sub(r.intended))/1e6)
			write = append(write, float64(r.written.Sub(r.sent))/1e3)
			if r.acked.IsZero() {
				continue
			}
			rtt = append(rtt, float64(r.acked.Sub(r.sent))/1e6)
			shares = append(shares, float64(r.shareBps))
			b.wholeNs += float64(r.latency())
			b.layersNs += float64(r.written.Sub(r.intended)) + decodeNs
			if r.shareBps > 0 {
				b.layersNs += float64(len(c.payload)) / float64(r.shareBps) * 1e9
			}
		}
		m[fmt.Sprintf("alloc.share_bps.conn%d", i)] = median(shares)
		m["octree.decode_us_per_frame"] += decodeNs / 1e3 * float64(len(run.recs[i]))
	}
	var frames int
	for _, recs := range run.recs {
		frames += len(recs)
	}
	m["octree.decode_us_per_frame"] /= float64(frames)
	acked := float64(len(rtt))
	b.wholeNs /= acked
	b.layersNs /= acked
	m["edge.generator_late_ms"] = mean(late)
	m["stream.write_frame_us"] = mean(write)
	m["stream.rtt_ms"] = median(rtt)
	m["stream.served_over_offered"] = float64(run.stats.BytesServed) / float64(run.offered)
	b.put(m, "budget.")

	ns, calls := allocs.cost(benchAllocator(allocs.allocs))
	m[allocMetric("equal")], m["alloc.allocate_calls"] = ns, float64(calls)
	st := run.stats
	m["stream.served"] = float64(st.FramesServed)
	m["stream.acked"] = float64(st.FramesAcked)
	m["stream.ack_failures"] = float64(st.AckFailures)
	m["stream.corrupt"] = float64(st.Corrupt)
	m["stream.shed"] = float64(st.Shed)
	return m
}
