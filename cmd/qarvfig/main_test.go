package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFig1WritesCSVAndTable(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(context.Background(), []string{"-fig", "1", "-samples", "30000", "-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "depth,points,psnr_dB") {
		t.Errorf("csv header = %q", strings.SplitN(string(data), "\n", 2)[0])
	}
	if !strings.Contains(out.String(), "octree depth") {
		t.Error("missing text table on stdout")
	}
}

func TestRunFig2WritesBothCSVs(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(context.Background(), []string{"-fig", "2a", "-samples", "30000", "-slots", "400",
		"-knee", "150", "-out", dir, "-quiet"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig2a.csv", "fig2b.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		head := strings.SplitN(string(data), "\n", 2)[0]
		if !strings.Contains(head, "Proposed") || !strings.Contains(head, "only max-Depth") {
			t.Errorf("%s header = %q", name, head)
		}
		if rows := strings.Count(string(data), "\n"); rows != 401 {
			t.Errorf("%s rows = %d, want 401 (header + 400 slots)", name, rows)
		}
	}
	// Quiet mode suppresses the chart.
	if strings.Contains(out.String(), "Fig. 2(a)") {
		t.Error("quiet mode printed the chart")
	}
}

func TestRunChartsOnStdout(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(context.Background(), []string{"-fig", "2b", "-samples", "30000", "-slots", "400",
		"-knee", "150", "-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Control action updates") {
		t.Error("missing 2b chart title")
	}
	if !strings.Contains(out.String(), "[*] Proposed") {
		t.Error("missing legend")
	}
}

func TestRunOffloadFigure(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(context.Background(), []string{"-fig", "offload", "-samples", "30000", "-slots", "400",
		"-knee", "150", "-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "offload.csv")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "EXT-OFFLOAD") ||
		!strings.Contains(out.String(), "uplink bandwidth") {
		t.Error("offload summary missing")
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	if err := run(context.Background(), []string{"-fig", "7"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown figure must error")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-nonsense"}, &bytes.Buffer{}); err == nil {
		t.Error("bad flag must error")
	}
}

func TestRunGridFigure(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(context.Background(), []string{"-fig", "grid", "-samples", "30000", "-slots", "120",
		"-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "grid.csv"))
	if err != nil {
		t.Fatal(err)
	}
	// 3 V factors × 3 network shapes = 9 cells plus the header.
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 10 {
		t.Fatalf("grid.csv lines = %d", len(lines))
	}
	if !strings.Contains(out.String(), "GRID — V × network volatility") {
		t.Errorf("missing grid table on stdout: %q", out.String())
	}
}

// TestRunAblationsFigure pins the ablation tables byte for byte: every
// sweep behind them (V, rate, utility model, multi-device, baselines) is
// deterministic, so any change to a grid or a row's formatting moves the
// digest.
func TestRunAblationsFigure(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(context.Background(), []string{"-fig", "ablations", "-quiet", "-samples", "30000",
		"-out", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "ablations.txt"))
	if err != nil {
		t.Fatal(err)
	}
	const want = "646402f3ddb5bd17a931aa1cd839dd465363ad8a1b4d4e0f6f429470b6939236"
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("ablations.txt sha256 = %s, want %s\n%s", got, want, raw)
	}
}
