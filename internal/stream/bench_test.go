package stream

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"qarv/internal/alloc"
)

// BenchmarkLoopbackBurst is the edge service's burst benchmark: 1000
// concurrent sessions over real loopback TCP against one unpaced
// server (EqualSplit), each sending 20 frames of 4 KiB at once and
// waiting for every ack. It reports the p50 and p99 send→ack latency
// over all frames — how long a burst takes to drain, not steady-state
// latency (perfbench's edge-openloop workload measures the open-loop
// form). Any dial, send or drain error, ack failure, shed or missing
// ack fails the benchmark.
func BenchmarkLoopbackBurst(b *testing.B) {
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	var latencies []time.Duration
	for i := 0; i < b.N; i++ {
		latencies = append(latencies, loopbackBurst(b, 1000, 20, payload)...)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	quantileMs := func(q float64) float64 {
		return float64(latencies[int(q*float64(len(latencies)-1))]) / float64(time.Millisecond)
	}
	b.ReportMetric(quantileMs(0.50), "p50_ms")
	b.ReportMetric(quantileMs(0.99), "p99_ms")
}

// loopbackBurst runs one burst of sessions × frames against a fresh
// server and returns every frame's send→ack latency.
func loopbackBurst(b *testing.B, sessions, frames int, payload []byte) []time.Duration {
	b.Helper()
	srv, err := Serve("127.0.0.1:0", ServerConfig{Allocator: alloc.EqualSplit{}})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	latCh := make(chan []time.Duration, sessions)
	errCh := make(chan error, sessions)
	var wg sync.WaitGroup
	for dev := 0; dev < sessions; dev++ {
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			client, err := Dial(srv.Addr())
			if err != nil {
				errCh <- fmt.Errorf("session %d: dial: %w", dev, err)
				return
			}
			defer client.Close()
			for f := 0; f < frames; f++ {
				if err := client.SendFrame(Frame{ID: uint32(f), Depth: 8, Payload: payload}); err != nil {
					errCh <- fmt.Errorf("session %d frame %d: %w", dev, f, err)
					return
				}
			}
			if !client.WaitForAcks(30 * time.Second) {
				errCh <- fmt.Errorf("session %d: did not drain", dev)
				return
			}
			latCh <- client.Latencies()
		}(dev)
	}
	wg.Wait()
	close(latCh)
	close(errCh)
	for err := range errCh {
		b.Fatal(err)
	}
	if err := srv.Drain(10 * time.Second); err != nil {
		b.Fatal(err)
	}
	if st := srv.Stats(); st.AckFailures != 0 || st.Shed != 0 || st.FramesAcked != sessions*frames {
		b.Fatalf("server stats %+v, want %d frames acked with no ack failures or sheds", st, sessions*frames)
	}
	var out []time.Duration
	for ls := range latCh {
		out = append(out, ls...)
	}
	return out
}
