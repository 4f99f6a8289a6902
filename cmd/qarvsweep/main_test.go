package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qarv"
)

// TestRunGridJSON: a 2×2 grid on the fleet backend emits a well-formed
// JSON report with one row per cell, plus a CSV table.
func TestRunGridJSON(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "sweep.csv")
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-samples", "30000", "-slots", "120", "-seed", "3",
		"-axis", "v=0.5,2", "-axis", "net=static,markov:0.5",
		"-backend", "fleet", "-sessions", "6",
		"-csv", csv, "-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Axes    []string `json:"axes"`
		Backend string   `json:"backend"`
		Rows    []struct {
			Cell   int `json:"cell"`
			Coords []struct {
				Axis  string `json:"axis"`
				Label string `json:"label"`
			} `json:"coords"`
			Sessions int64 `json:"sessions"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(rep.Axes) != 2 || rep.Axes[0] != "v" || rep.Axes[1] != "net" {
		t.Errorf("axes = %v", rep.Axes)
	}
	if rep.Backend != "fleet" || len(rep.Rows) != 4 {
		t.Fatalf("backend %q rows %d", rep.Backend, len(rep.Rows))
	}
	for i, row := range rep.Rows {
		if row.Cell != i || len(row.Coords) != 2 || row.Sessions != 6 {
			t.Errorf("row %d = %+v", i, row)
		}
	}
	raw, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "cell,") {
		t.Errorf("csv header = %q", strings.SplitN(string(raw), "\n", 2)[0])
	}
}

// TestRunTextTable: the default output is an aligned text table headed
// by the axis names.
func TestRunTextTable(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-samples", "30000", "-slots", "120",
		"-axis", "policy=proposed,min",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "policy") || !strings.Contains(out.String(), "verdict") {
		t.Errorf("output missing table: %q", out.String())
	}
}

// TestRunContentAxis drives the content axis end-to-end through the
// CLI: a content (2 assets) × v grid must emit measured-ladder cells
// byte-identical at -workers 1 and 4 (the acceptance determinism pin at
// the outermost layer).
func TestRunContentAxis(t *testing.T) {
	sweep := func(workers string) string {
		var out bytes.Buffer
		err := run(context.Background(), []string{
			"-samples", "6000", "-slots", "100", "-seed", "5",
			"-axis", "content=loot,soldier", "-axis", "v=0.5,1",
			"-workers", workers, "-json",
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	base := sweep("1")
	if got := sweep("4"); got != base {
		t.Fatal("content sweep diverged between -workers 1 and 4")
	}
	var rep struct {
		Axes []string `json:"axes"`
		Rows []struct {
			Coords []struct {
				Axis  string `json:"axis"`
				Label string `json:"label"`
			} `json:"coords"`
		} `json:"rows"`
	}
	if err := json.Unmarshal([]byte(base), &rep); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rep.Axes) != 2 || rep.Axes[0] != "content" || len(rep.Rows) != 4 {
		t.Fatalf("axes %v rows %d, want [content v] and 4 cells", rep.Axes, len(rep.Rows))
	}
	if rep.Rows[0].Coords[0].Label != "loot" || rep.Rows[2].Coords[0].Label != "soldier" {
		t.Errorf("content labels %q/%q, want loot/soldier",
			rep.Rows[0].Coords[0].Label, rep.Rows[2].Coords[0].Label)
	}
}

// TestRunRejectsBadInput: missing axes, malformed specs, unknown kinds
// and backends, and non-finite axis values all fail with a clear error.
func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-axis", "v"},
		{"-axis", "nosuch=1,2"},
		{"-axis", "v=a,b"},
		{"-axis", "net=warp"},
		{"-axis", "v=1", "-backend", "nosuch"},
		{"-axis", "v=1", "-json", "-chart"},
		{"-axis", "content=no-such-asset"},
		{"-axis", "viewdist=2,4"},
		{"-axis", "viewdist=loot:x"},
		{"-samples", "30000", "-slots", "50", "-axis", "v=NaN"},
		{"-samples", "30000", "-slots", "50", "-axis", "v=Inf"},
		{"-samples", "30000", "-slots", "50", "-axis", "rate=NaN"},
		{"-samples", "30000", "-slots", "50", "-axis", "arrivals=NaN"},
		{"-samples", "30000", "-slots", "50", "-axis", "net=markov:NaN"},
		{"-samples", "30000", "-slots", "50", "-axis", "net=markov:0.5:NaN"},
		{"-samples", "30000", "-slots", "50", "-axis", "net=markov:0.5:Inf"},
		{"-samples", "30000", "-slots", "9223372036854775807", "-axis", "v=1,2"},
	} {
		if err := run(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

// TestRunLearnedAxes: the learned allocator and policy forms plus the
// dwell-parameterized markov shape flow through the axis grammar.
func TestRunLearnedAxes(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-samples", "30000", "-slots", "120", "-seed", "3",
		"-axis", "alloc=equal,bandit:4,gradient:0.3",
		"-axis", "net=markov:0.8:32",
		"-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"bandit:4", "gradient:0.3", "markov-v0.80-d32"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	out.Reset()
	err = run(context.Background(), []string{
		"-samples", "30000", "-slots", "120",
		"-axis", "policy=proposed,predictive-delayed:6",
		"-axis", "net=static",
		"-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "predictive-delayed:6") {
		t.Errorf("policy label missing:\n%s", out.String())
	}
	// Unknown learned forms are rejected with the grammar enumerated.
	err = run(context.Background(), []string{
		"-samples", "30000", "-axis", "alloc=bandit:x", "-axis", "net=static",
	}, &bytes.Buffer{})
	if err == nil {
		t.Error("bandit:x must error")
	}
	err = run(context.Background(), []string{
		"-samples", "30000", "-axis", "policy=precognitive", "-axis", "net=static",
	}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "predictive[:H]") {
		t.Errorf("policy error %v does not enumerate the grammar", err)
	}
}

// FuzzBuildAxis fuzzes the -axis grammar: every spec either errors, or
// each of its points either fails Apply on a fresh cell or leaves the
// cell's V factor, service fraction and arrival rate finite and
// non-negative, with any network point's capacity process serving a
// finite, non-negative amount in each of 64 slots. Content, viewdist
// and net=trace:FILE specs are skipped because they read assets and
// files.
func FuzzBuildAxis(f *testing.F) {
	for _, spec := range []string{
		"v=0.5,1,2", "rate=0.8,1", "arrivals=0.9,1.1", "slots=400,800",
		"net=static,markov:0.6,handoff,trace", "net=markov:0.8:64",
		"alloc=equal,bandit:4,gradient:0.2", "policy=proposed,max,min,predictive-delayed:6",
		"v=NaN", "v=Inf", "rate=NaN", "rate=Inf", "arrivals=NaN", "arrivals=Inf",
		"net=markov:NaN", "net=markov:0.5:NaN", "net=markov:0.5:Inf", "net=markov:-0",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		kind, list, _ := strings.Cut(spec, "=")
		if kind == "content" || kind == "viewdist" || (kind == "net" && strings.Contains(list, "trace:")) {
			return
		}
		ax, err := buildAxis(spec, options{})
		if err != nil {
			return
		}
		nonNegFinite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 }
		for _, p := range ax.Points {
			c := &qarv.SweepCell{VFactor: 1, ServiceFraction: 1}
			if err := p.Apply(c); err != nil {
				continue
			}
			if !nonNegFinite(c.VFactor) || !nonNegFinite(c.ServiceFraction) || !nonNegFinite(c.ArrivalRate) {
				t.Fatalf("%q point %q: V factor %v, service fraction %v, arrival rate %v",
					spec, p.Label, c.VFactor, c.ServiceFraction, c.ArrivalRate)
			}
			if c.NewService == nil {
				continue
			}
			proc := c.NewService(c, 100, qarv.NewRNG(1))
			for slot := 0; slot < 64; slot++ {
				if s := proc.Service(slot); !nonNegFinite(s) {
					t.Fatalf("%q point %q slot %d: service %v", spec, p.Label, slot, s)
				}
			}
		}
	})
}
