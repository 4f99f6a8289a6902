package lint

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

// doccheckFixtureDir is the fixture package of the analyzer-mode test.
const doccheckFixtureDir = "testdata/doccheck/src/qarv/internal/render"

// doccheckLegacyOutput is the exact stdout the retired cmd/doccheck
// produced on the fixture (captured from the old binary before the
// merge). The analyzer's findings must carry the same lines.
const doccheckLegacyOutput = doccheckFixtureDir + "/render.go:9: exported type Undocumented is missing a doc comment\n" +
	doccheckFixtureDir + "/render.go:17: exported var V is missing a doc comment\n" +
	doccheckFixtureDir + "/render.go:22: exported function UndocumentedFunc is missing a doc comment\n" +
	doccheckFixtureDir + "/render.go:32: exported method N is missing a doc comment\n" +
	doccheckFixtureDir + "/render.go:38: exported var Y is missing a doc comment\n"

// TestDoccheckAnalyzerMatchesLegacy pins the analyzer to the retired
// cmd/doccheck's output: same files, same finding lines, same messages —
// only the framing (qarvcheck diagnostics vs. raw lines) differs.
func TestDoccheckAnalyzerMatchesLegacy(t *testing.T) {
	loader := NewLoaderAt("qarv", filepath.Join("testdata", "doccheck", "src", "qarv"))
	pkg, err := loader.Load("qarv/internal/render")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{DoccheckAnalyzer})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var got bytes.Buffer
	for _, d := range diags {
		fmt.Fprintf(&got, "%s:%d: %s\n", filepath.ToSlash(d.Pos.Filename), d.Pos.Line, d.Message)
	}
	if got.String() != doccheckLegacyOutput {
		t.Errorf("analyzer findings diverged from the retired cmd/doccheck:\ngot:\n%swant:\n%s", got.String(), doccheckLegacyOutput)
	}
}
