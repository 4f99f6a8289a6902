// Command perfbench is the repository benchmark. It drives the fleet
// engine, the session sweep engine, and the live edge server from
// outside, through the public functions and factories each layer
// exposes, and prints one JSON result line. See README.md for the
// workloads, the metrics, and which layer metric should move which
// end-to-end metric.
//
// Usage:
//
//	perfbench --workload fleet-churn|session-sweep|edge-openloop --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured by a traced pass
// that follows an untraced pass of the same length.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds time.Duration // measured time of one pass; a traced run makes two
	trace   bool
}

// outcome is what a workload reports back.
type outcome struct {
	endToEnd map[string]float64
	perLayer map[string]float64
	checker  // the run's checks and their failures
	// digest hashes every simulated statistic of the run (empty for the
	// live edge workload, whose statistics are timings). Reported, not
	// gated: a change that claims only speed should leave it unchanged.
	digest string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, cfg runConfig) (*outcome, error){
	"fleet-churn":   runFleet,
	"session-sweep": runSweep,
	"edge-openloop": runEdge,
}

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run parses the flags, runs one workload, and prints the environment
// header, the digest line, and the result line.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "measured seconds per pass")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced pass")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (want one of %v)", *name, names)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}

	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"env": readEnvironment(), "workload": *name, "seed": *seed, "trace": *trace}); err != nil {
		return err
	}
	oc, err := wl(ctx, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	if err := enc.Encode(map[string]string{"digest": oc.digest}); err != nil {
		return err
	}
	if oc.first != "" {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", oc.first)
	}
	res := result{Correct: oc.failed == 0, Attempted: oc.attempted, Failed: oc.failed}
	if oc.attempted < 1 {
		return fmt.Errorf("%s: no operation attempted", *name)
	}
	if cfg.trace {
		oc.perLayer["error_ratio"] = float64(oc.failed) / float64(oc.attempted)
		res.Metrics = fill(perLayer, oc.perLayer)
	} else {
		oc.endToEnd["peak_rss_mb"] = float64(readUsage().maxRSSB) / (1 << 20)
		res.Metrics = fill(endToEnd, oc.endToEnd)
	}
	return enc.Encode(res)
}
