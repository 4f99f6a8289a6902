// Command qarvfig regenerates every figure of the paper's evaluation into
// a results directory: CSV series, a JSON dump, and a terminal ASCII
// rendering of each figure (Fig. 1 as a table, Fig. 2(a)/(b) as charts),
// plus the ablation tables (see the benchmark harness in bench_test.go
// for the artifact index).
//
// Usage:
//
//	qarvfig [-fig 1|2a|2b|ablations|grid|offload|all] [-out results]
//	        [-samples N] [-slots T] [-seed S] [-quiet]
//
// The grid figure runs a V × network-volatility cross product through
// the declarative sweep engine (see cmd/qarvsweep for arbitrary grids).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"

	"qarv"
	"qarv/internal/experiments"
	"qarv/internal/quality"
	"qarv/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// After the first Ctrl-C cancels ctx, unregister the handler so a
	// second Ctrl-C falls back to default termination — the graceful
	// path covers the cancelable stages, the hard path everything else.
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qarvfig:", err)
		os.Exit(1)
	}
}

type options struct {
	fig     string
	outDir  string
	samples int
	slots   int
	knee    float64
	seed    uint64
	quiet   bool
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("qarvfig", flag.ContinueOnError)
	var o options
	var seed int64
	fs.StringVar(&o.fig, "fig", "all", "figure to regenerate: 1, 2a, 2b, ablations, grid, offload, all")
	fs.StringVar(&o.outDir, "out", "results", "output directory for CSV/JSON")
	fs.IntVar(&o.samples, "samples", 400_000, "surface samples for the synthetic capture")
	fs.IntVar(&o.slots, "slots", 800, "simulation horizon (time steps)")
	fs.Float64Var(&o.knee, "knee", 400, "target knee slot for the Proposed scheme (V calibration)")
	fs.Int64Var(&seed, "seed", 1, "synthetic dataset seed")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress ASCII charts on stdout")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.seed = uint64(seed)
	return o, nil
}

func run(ctx context.Context, args []string, out io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	doFig1 := o.fig == "1" || o.fig == "all"
	doFig2 := o.fig == "2a" || o.fig == "2b" || o.fig == "all"
	doAbl := o.fig == "ablations" || o.fig == "all"
	doGrid := o.fig == "grid" || o.fig == "all"
	doOffload := o.fig == "offload" || o.fig == "all"
	if !doFig1 && !doFig2 && !doAbl && !doGrid && !doOffload {
		return fmt.Errorf("unknown -fig %q (want 1, 2a, 2b, ablations, grid, offload, all)", o.fig)
	}
	if doFig1 {
		if err := runFig1(ctx, o, out); err != nil {
			return fmt.Errorf("fig 1: %w", err)
		}
	}
	if doFig2 || doAbl || doGrid {
		if err := ctx.Err(); err != nil {
			return err
		}
		scn, err := qarv.NewScenario(qarv.ScenarioParams{
			Samples:  o.samples,
			Slots:    o.slots,
			KneeSlot: o.knee,
			Seed:     o.seed,
		})
		if err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		if doFig2 {
			if err := runFig2(ctx, o, scn, out); err != nil {
				return fmt.Errorf("fig 2: %w", err)
			}
		}
		if doAbl {
			if err := runAblations(ctx, o, scn, out); err != nil {
				return fmt.Errorf("ablations: %w", err)
			}
		}
		if doGrid {
			if err := runGrid(ctx, o, scn, out); err != nil {
				return fmt.Errorf("grid: %w", err)
			}
		}
	}
	if doOffload {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := runOffload(ctx, o, out); err != nil {
			return fmt.Errorf("offload: %w", err)
		}
	}
	return nil
}

// runGrid is the cross-product study the bespoke per-ablation loops
// could not express: V × network volatility, each cell a fleet, run
// through the sweep engine in one declarative call.
func runGrid(ctx context.Context, o options, scn *qarv.Scenario, out io.Writer) error {
	sw, err := qarv.NewSweep(scn,
		qarv.AxisV(0.5, 1, 2),
		qarv.AxisNetwork(qarv.NetworkStatic(), qarv.NetworkMarkov(0.3), qarv.NetworkMarkov(0.6)),
	)
	if err != nil {
		return err
	}
	sw.Backend = qarv.BackendFleet(64)
	sw.Slots = 2 * o.slots
	sw.Seed = o.seed
	rep, err := sw.Run(ctx)
	if err != nil {
		return err
	}
	tab, err := rep.Table()
	if err != nil {
		return err
	}
	if err := writeCSV(tab, filepath.Join(o.outDir, "grid.csv")); err != nil {
		return err
	}
	if !o.quiet {
		fmt.Fprintln(out, "\nGRID — V × network volatility (64-session fleet per cell)")
		headers, cells := rep.TextTable()
		if err := trace.RenderTextTable(out, headers, cells); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "wrote %s\n", filepath.Join(o.outDir, "grid.csv"))
	return nil
}

func runOffload(ctx context.Context, o options, out io.Writer) error {
	sess, err := qarv.NewSession(qarv.WithOffload(qarv.OffloadParams{
		Samples:  o.samples,
		Slots:    o.slots,
		KneeSlot: o.knee,
		Seed:     o.seed,
	}))
	if err != nil {
		return err
	}
	rep, err := sess.Run(ctx)
	if err != nil {
		return err
	}
	res := rep.Offload
	tab := trace.NewTable("Time step", len(res.BacklogBytes))
	if err := tab.Add(trace.Series{Name: "uplink backlog (bytes)", Values: res.BacklogBytes}); err != nil {
		return err
	}
	if err := tab.Add(trace.FromInts("depth", res.Depth)); err != nil {
		return err
	}
	if err := writeCSV(tab, filepath.Join(o.outDir, "offload.csv")); err != nil {
		return err
	}
	if !o.quiet {
		fmt.Fprintln(out, "\nEXT-OFFLOAD — octree streams over an emulated uplink")
		if err := trace.RenderTextTable(out,
			[]string{"metric", "value"},
			[][]string{
				{"uplink bandwidth (B/slot)", fmt.Sprintf("%.0f", res.Bandwidth)},
				{"bytes(5) .. bytes(10)", fmt.Sprintf("%d .. %d", res.Bytes[5], res.Bytes[10])},
				{"calibrated V", fmt.Sprintf("%.4g", res.V)},
				{"verdict", res.Verdict.String()},
				{"mean depth", fmt.Sprintf("%.2f", res.MeanDepth)},
				{"mean latency (slots)", fmt.Sprintf("%.2f", res.MeanLatency)},
				{"p95 latency (slots)", fmt.Sprintf("%.2f", res.P95Latency)},
				{"frames lost", strconv.Itoa(res.LossCount)},
			}); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "wrote %s\n", filepath.Join(o.outDir, "offload.csv"))
	return nil
}

func runFig1(ctx context.Context, o options, out io.Writer) error {
	rows, err := experiments.Fig1Context(ctx, experiments.Fig1Config{Samples: o.samples, Seed: o.seed})
	if err != nil {
		return err
	}
	if err := experiments.Fig1Invariants(rows); err != nil {
		return fmt.Errorf("invariant check: %w", err)
	}
	headers := []string{"octree depth", "points", "point ratio", "geom PSNR (dB)", "Hausdorff (m)", "color PSNR (dB)"}
	cells := make([][]string, len(rows))
	depths := make([]float64, 0, len(rows))
	points := trace.Series{Name: "points"}
	psnr := trace.Series{Name: "psnr_dB"}
	for i, r := range rows {
		cells[i] = []string{
			strconv.Itoa(r.Depth),
			strconv.Itoa(r.Points),
			fmt.Sprintf("%.4f", r.PointRatio),
			fmt.Sprintf("%.2f", r.PSNR),
			fmt.Sprintf("%.5f", r.Hausdorff),
			fmt.Sprintf("%.2f", r.ColorPSNR),
		}
		depths = append(depths, float64(r.Depth))
		points.Values = append(points.Values, float64(r.Points))
		psnr.Values = append(psnr.Values, r.PSNR)
	}
	tab := trace.NewTableWithX("depth", depths)
	if err := tab.Add(points); err != nil {
		return err
	}
	if err := tab.Add(psnr); err != nil {
		return err
	}
	if err := writeCSV(tab, filepath.Join(o.outDir, "fig1.csv")); err != nil {
		return err
	}
	if !o.quiet {
		fmt.Fprintln(out, "\nFig. 1 — AR visualization resolution depending on Octree depth")
		if err := trace.RenderTextTable(out, headers, cells); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "wrote %s\n", filepath.Join(o.outDir, "fig1.csv"))
	return nil
}

func runFig2(ctx context.Context, o options, scn *experiments.Scenario, out io.Writer) error {
	res, err := experiments.Fig2Context(ctx, scn)
	if err != nil {
		return err
	}
	if err := res.CheckShape(); err != nil {
		return fmt.Errorf("shape check: %w", err)
	}
	backlog, err := res.BacklogTable()
	if err != nil {
		return err
	}
	control, err := res.ControlTable()
	if err != nil {
		return err
	}
	if err := writeCSV(backlog, filepath.Join(o.outDir, "fig2a.csv")); err != nil {
		return err
	}
	if err := writeCSV(control, filepath.Join(o.outDir, "fig2b.csv")); err != nil {
		return err
	}
	if !o.quiet {
		if o.fig == "2a" || o.fig == "all" {
			fmt.Fprintln(out)
			if err := backlog.RenderASCII(out, trace.ChartOptions{
				Title: "Fig. 2(a) — Queue/stability dynamics (backlog vs time)",
			}); err != nil {
				return err
			}
		}
		if o.fig == "2b" || o.fig == "all" {
			fmt.Fprintln(out)
			if err := control.RenderASCII(out, trace.ChartOptions{
				Title: "Fig. 2(b) — Control action updates (# of depth vs time)",
			}); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "\nscenario: service=%.0f pts/slot, calibrated V=%.4g, knee slot=%d\n",
			scn.ServiceRate, scn.V, res.KneeSlot())
		fmt.Fprintf(out, "verdicts: proposed=stabilized  max-depth=diverging  min-depth=converged (checked)\n")
	}
	fmt.Fprintf(out, "wrote %s and %s\n",
		filepath.Join(o.outDir, "fig2a.csv"), filepath.Join(o.outDir, "fig2b.csv"))
	return nil
}

func runAblations(ctx context.Context, o options, scn *experiments.Scenario, out io.Writer) error {
	// Each grid honors ctx inside its cells' slot loops; a cancel ends
	// the whole batch at the next grid.
	//
	// ABL-V. The knee (time-to-steady-state) scales with V: the horizon
	// covers the largest factor's knee with generous settling room.
	vFactors := []float64{0.01, 0.1, 0.5, 1, 2, 10}
	vRep, err := ablationGrid(ctx, scn, max(4*scn.Params.Slots, int(4*10*scn.Params.KneeSlot)),
		experiments.AxisV(vFactors...))
	if err != nil {
		return err
	}
	vHeaders := []string{"V", "avg utility", "avg backlog", "max backlog", "verdict", "bound gap", "bound backlog"}
	vCells := make([][]string, len(vRep.Rows))
	for i, r := range vRep.Rows {
		v := scn.V * vFactors[i]
		var boundGap, boundBacklog float64
		if ctrl, err := scn.ControllerWithV(v); err == nil {
			if b, err := ctrl.TheoreticalBounds(scn.ServiceRate); err == nil {
				boundGap, boundBacklog = b.UtilityGap, b.BacklogBound
			}
		}
		vCells[i] = []string{
			fmt.Sprintf("%.4g", v),
			fmt.Sprintf("%.4f", r.Utility),
			fmt.Sprintf("%.0f", r.Backlog),
			fmt.Sprintf("%.0f", r.MaxBacklog),
			r.Verdict,
			fmt.Sprintf("%.4g", boundGap),
			fmt.Sprintf("%.4g", boundBacklog),
		}
	}
	// ABL-RATE.
	fractions := []float64{0.6, 0.8, 0.9, 1.0, 1.1, 1.2, 1.4}
	rRep, err := ablationGrid(ctx, scn, 2*scn.Params.Slots, experiments.AxisServiceRate(fractions...))
	if err != nil {
		return err
	}
	rHeaders := []string{"rate ×", "avg utility", "avg backlog", "verdict", "mean depth"}
	rCells := make([][]string, len(rRep.Rows))
	for i, r := range rRep.Rows {
		rCells[i] = []string{
			fmt.Sprintf("%.2f", fractions[i]),
			fmt.Sprintf("%.4f", r.Utility),
			fmt.Sprintf("%.0f", r.Backlog),
			r.Verdict,
			fmt.Sprintf("%.2f", r.MeanDepth),
		}
	}
	// ABL-UTIL: V recalibrated per model so knees stay comparable.
	logU, err := quality.NewLogPointUtility(scn.Profile)
	if err != nil {
		return err
	}
	normU, err := quality.NewNormalizedPointUtility(scn.Profile)
	if err != nil {
		return err
	}
	models := []quality.UtilityModel{logU, normU, &quality.LinearDepthUtility{MaxDepth: scn.Params.CaptureDepth}}
	uRep, err := ablationGrid(ctx, scn, scn.Params.Slots, experiments.AxisUtility(models...))
	if err != nil {
		return err
	}
	uHeaders := []string{"utility model", "avg backlog", "verdict", "mean depth", "knee slot"}
	uCells := make([][]string, len(uRep.Rows))
	for i, r := range uRep.Rows {
		uCells[i] = []string{
			models[i].Name(),
			fmt.Sprintf("%.0f", r.Backlog),
			r.Verdict,
			fmt.Sprintf("%.2f", r.MeanDepth),
			strconv.Itoa(r.KneeSlot),
		}
	}
	// ABL-MD.
	mRows, err := experiments.MultiDeviceContext(ctx, scn, 4, 0)
	if err != nil {
		return err
	}
	mHeaders := []string{"device", "avg utility", "avg backlog", "verdict"}
	mCells := make([][]string, len(mRows))
	for i, r := range mRows {
		mCells[i] = []string{
			strconv.Itoa(r.Device),
			fmt.Sprintf("%.4f", r.TimeAvgUtility),
			fmt.Sprintf("%.0f", r.TimeAvgBacklog),
			r.Verdict,
		}
	}
	// ABL-BASE.
	bRows, err := experiments.BaselinesContext(ctx, scn, 0, o.seed)
	if err != nil {
		return err
	}
	bHeaders := []string{"policy", "avg utility", "avg backlog", "max backlog", "verdict"}
	bCells := make([][]string, len(bRows))
	for i, r := range bRows {
		bCells[i] = []string{
			r.Policy,
			fmt.Sprintf("%.4f", r.TimeAvgUtility),
			fmt.Sprintf("%.0f", r.TimeAvgBacklog),
			fmt.Sprintf("%.0f", r.MaxBacklog),
			r.Verdict,
		}
	}

	f, err := os.Create(filepath.Join(o.outDir, "ablations.txt"))
	if err != nil {
		return err
	}
	defer f.Close()
	writeBoth := func(title string, headers []string, cells [][]string) error {
		for _, w := range []io.Writer{f, out} {
			if w == out && o.quiet {
				continue
			}
			if _, err := fmt.Fprintf(w, "\n%s\n", title); err != nil {
				return err
			}
			if err := trace.RenderTextTable(w, headers, cells); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeBoth("ABL-V — V tradeoff (O(1/V) utility gap vs O(V) backlog)", vHeaders, vCells); err != nil {
		return err
	}
	if err := writeBoth("ABL-RATE — service-rate robustness", rHeaders, rCells); err != nil {
		return err
	}
	if err := writeBoth("ABL-UTIL — utility-model sensitivity", uHeaders, uCells); err != nil {
		return err
	}
	if err := writeBoth("ABL-MD — distributed multi-device (shared service)", mHeaders, mCells); err != nil {
		return err
	}
	if err := writeBoth("ABL-BASE — extended baseline comparison", bHeaders, bCells); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", filepath.Join(o.outDir, "ablations.txt"))
	return nil
}

// ablationGrid runs one ablation grid on the pool backend over slots.
func ablationGrid(ctx context.Context, scn *experiments.Scenario, slots int, axes ...experiments.SweepAxis) (*experiments.SweepReport, error) {
	sw, err := experiments.NewSweep(scn, axes...)
	if err != nil {
		return nil, err
	}
	sw.Slots = slots
	return sw.Run(ctx)
}

func writeCSV(t *trace.Table, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}
