package eval

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chatvis/internal/pvpython"
)

func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		DataDir:  t.TempDir(),
		OutDir:   t.TempDir(),
		Width:    320,
		Height:   180,
		DataSize: DataSmall,
	}
}

func TestScenariosComplete(t *testing.T) {
	scns := Scenarios()
	if len(scns) != 12 {
		t.Fatalf("scenarios = %d", len(scns))
	}
	ids := map[string]bool{}
	for _, s := range scns {
		ids[s.ID] = true
		p := s.UserPrompt(1920, 1080)
		if !strings.Contains(p, "1920 x 1080 pixels") {
			t.Errorf("%s: prompt missing resolution", s.ID)
		}
		if !strings.Contains(p, s.Screenshot) {
			t.Errorf("%s: prompt does not name its screenshot", s.ID)
		}
		gt := s.GroundTruthScript(640, 360)
		if !strings.Contains(gt, "from paraview.simple import *") {
			t.Errorf("%s: ground truth not a pvpython script", s.ID)
		}
		if !strings.Contains(gt, "[640, 360]") {
			t.Errorf("%s: ground truth ignores resolution", s.ID)
		}
	}
	for _, want := range []string{"iso", "slice", "volume", "delaunay", "stream",
		"clip", "threshold", "glyph", "sliceclip", "isovalues",
		"glyphslice", "threshcontour"} {
		if !ids[want] {
			t.Errorf("missing scenario %q", want)
		}
	}
	if _, ok := ScenarioByID("stream"); !ok {
		t.Error("ScenarioByID failed")
	}
	if _, ok := ScenarioByID("nope"); ok {
		t.Error("unknown id should fail")
	}
	// The paper subset keeps Table II's shape and ordering.
	paper := PaperScenarios()
	if len(paper) != 5 {
		t.Fatalf("paper scenarios = %d", len(paper))
	}
	for i, want := range []string{"iso", "slice", "volume", "delaunay", "stream"} {
		if paper[i].ID != want {
			t.Errorf("paper scenario %d = %q, want %q", i, paper[i].ID, want)
		}
	}
}

// TestExtendedScenariosRunChatVis drives the assistant end-to-end on the
// three extended scenarios: each must execute cleanly and reproduce its
// ground-truth image, like the paper five.
func TestExtendedScenariosRunChatVis(t *testing.T) {
	for _, id := range []string{"clip", "threshold", "glyph", "sliceclip", "isovalues",
		"glyphslice", "threshcontour"} {
		t.Run(id, func(t *testing.T) {
			c := testConfig(t)
			scn, ok := ScenarioByID(id)
			if !ok {
				t.Fatalf("scenario %q not registered", id)
			}
			cell, art, err := c.RunChatVis(context.Background(), scn)
			if err != nil {
				t.Fatal(err)
			}
			if !cell.ErrorFree {
				t.Fatalf("ChatVis failed on %s: first error %q\nscript:\n%s",
					id, cell.FirstError, art.FinalScript)
			}
			if !cell.Screenshot {
				t.Errorf("%s screenshot should match ground truth: %s", id, cell.Metrics)
			}
		})
	}
}

func TestEnsureDataWritesOnceAndSkips(t *testing.T) {
	dir := t.TempDir()
	if err := EnsureData(dir, DataSmall); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"ml-100.vtk", "can_points.ex2", "disk.ex2"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("%s missing: %v", f, err)
		}
	}
	info1, _ := os.Stat(filepath.Join(dir, "ml-100.vtk"))
	if err := EnsureData(dir, DataSmall); err != nil {
		t.Fatal(err)
	}
	info2, _ := os.Stat(filepath.Join(dir, "ml-100.vtk"))
	if !info1.ModTime().Equal(info2.ModTime()) {
		t.Error("EnsureData should not rewrite existing files")
	}
}

func TestRunChatVisOnIso(t *testing.T) {
	c := testConfig(t)
	scn, _ := ScenarioByID("iso")
	cell, art, err := c.RunChatVis(context.Background(), scn)
	if err != nil {
		t.Fatal(err)
	}
	if !cell.ErrorFree {
		t.Fatalf("ChatVis failed on iso: %+v", cell)
	}
	if !cell.Screenshot {
		t.Errorf("screenshot should match ground truth: %s", cell.Metrics)
	}
	if art.FinalScript == "" {
		t.Error("artifact missing final script")
	}
	// ChatVis uses the same engine and canonical calls as ground truth:
	// images should be essentially identical.
	if cell.Metrics.RMSE > 0.02 {
		t.Errorf("iso image diverges from ground truth: %s", cell.Metrics)
	}
}

func TestRunUnassistedGPT4VolumeIsBlank(t *testing.T) {
	c := testConfig(t)
	scn, _ := ScenarioByID("volume")
	cell, _, err := c.RunUnassisted(context.Background(), "gpt-4", scn)
	if err != nil {
		t.Fatal(err)
	}
	if !cell.ErrorFree {
		t.Fatalf("paper: GPT-4 volume script runs without error; got %+v", cell)
	}
	if cell.Screenshot {
		t.Error("paper: GPT-4 volume screenshot is wrong (blank); judge must reject it")
	}
}

func TestRunTable2ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid is slow")
	}
	c := testConfig(t)
	t2, err := c.RunTable2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Tasks) != 5 || len(t2.Models) != 6 {
		t.Fatalf("grid = %d tasks x %d models", len(t2.Tasks), len(t2.Models))
	}
	// ChatVis: No error / SS yes on all tasks.
	for _, task := range t2.Tasks {
		cv := t2.Cells[task]["ChatVis"]
		if !cv.ErrorFree || !cv.Screenshot {
			t.Errorf("ChatVis on %s: error-free=%v ss=%v (want true/true)",
				task, cv.ErrorFree, cv.Screenshot)
		}
	}
	// GPT-4: error-free only on isosurfacing + volume; SS only on
	// isosurfacing.
	g4Want := map[string][2]bool{
		"Isosurfacing":            {true, true},
		"Slicing then contouring": {false, false},
		"Volume rendering":        {true, false},
		"Delaunay triangulation":  {false, false},
		"Streamline tracing":      {false, false},
	}
	for task, want := range g4Want {
		got := t2.Cells[task]["gpt-4"]
		if got.ErrorFree != want[0] || got.Screenshot != want[1] {
			t.Errorf("gpt-4 on %s: error-free=%v ss=%v, want %v/%v",
				task, got.ErrorFree, got.Screenshot, want[0], want[1])
		}
	}
	// All weaker models: error on everything, no screenshots.
	for _, m := range []string{"gpt-3.5-turbo", "llama3-8b", "codellama-7b", "codegemma"} {
		for _, task := range t2.Tasks {
			cell := t2.Cells[task][m]
			if cell.ErrorFree || cell.Screenshot {
				t.Errorf("%s on %s: error-free=%v ss=%v (want false/false)",
					m, task, cell.ErrorFree, cell.Screenshot)
			}
		}
	}
	// The formatted table mentions every model and task.
	text := t2.Format()
	for _, m := range t2.Models {
		if !strings.Contains(text, m) {
			t.Errorf("formatted table missing %s", m)
		}
	}
}

func TestRunTable1(t *testing.T) {
	c := testConfig(t)
	t1, err := c.RunTable1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !t1.ChatVisOK {
		t.Error("ChatVis streamline script must execute cleanly")
	}
	if !strings.Contains(t1.GPT4Script, "glyph.Scalars") {
		t.Error("GPT-4 script should contain the hallucinated attributes")
	}
	if !strings.Contains(t1.GPT4Error, "AttributeError") {
		t.Errorf("GPT4Error = %q", t1.GPT4Error)
	}
	text := t1.Format()
	if !strings.Contains(text, "ChatVis") || !strings.Contains(text, "GPT-4") {
		t.Error("Format output incomplete")
	}
}

func TestRunFigureIso(t *testing.T) {
	c := testConfig(t)
	scn, _ := ScenarioByID("iso")
	fr, err := c.RunFigure(context.Background(), scn)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.ChatVisMatches {
		t.Errorf("ChatVis figure should match GT: %s", fr.ChatVis)
	}
	if fr.GPT4 == nil {
		t.Fatal("GPT-4 produces an image for Fig. 2")
	}
	// The paper: GPT-4's image shows the right geometry but a gray
	// background and different zoom — so it should differ more from GT
	// than ChatVis's does.
	if fr.GPT4.RMSE <= fr.ChatVis.RMSE {
		t.Errorf("expected GPT-4 image (gray bg) to differ more: gpt4=%s chatvis=%s",
			fr.GPT4, &fr.ChatVis)
	}
}

func TestWriteReport(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	c := testConfig(t)
	t2, err := c.RunTable2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t1, err := c.RunTable1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	scn, _ := ScenarioByID("iso")
	fig, err := c.RunFigure(context.Background(), scn)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := c.RunMultiTurn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.md")
	routing := &RoutingTable{Rows: []RoutingRow{{
		Task: "edit-intent", Model: "codegemma", Score: 1.0, Bar: 0.90,
		CostWeight: 0.04, Decisions: 3, Ladder: []string{"codegemma", "gpt-4"},
	}}}
	if err := WriteReport(path, t2, t1, []*FigureResult{fig}, mt, routing); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{"Table II", "Table I", "Fig. 2", "ChatVis",
		"Multi-turn conversations", "turn 2 plan-sim",
		"Model routing", "codegemma | 1.00 | 0.90"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestScriptScoreRanksModels(t *testing.T) {
	c := testConfig(t)
	scn, _ := ScenarioByID("stream")
	cv, _, err := c.RunChatVis(context.Background(), scn)
	if err != nil {
		t.Fatal(err)
	}
	g4, _, err := c.RunUnassisted(context.Background(), "gpt-4", scn)
	if err != nil {
		t.Fatal(err)
	}
	weak, _, err := c.RunUnassisted(context.Background(), "llama3-8b", scn)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's proposed code-level metric should rank ChatVis above
	// unassisted GPT-4 above a model that emits unparsable output.
	if cv.ScriptScore.Overall <= g4.ScriptScore.Overall {
		t.Errorf("ChatVis %.2f should beat gpt-4 %.2f",
			cv.ScriptScore.Overall, g4.ScriptScore.Overall)
	}
	if g4.ScriptScore.Overall <= weak.ScriptScore.Overall {
		t.Errorf("gpt-4 %.2f should beat llama3 %.2f",
			g4.ScriptScore.Overall, weak.ScriptScore.Overall)
	}
	if weak.ScriptScore.Overall != 0 {
		t.Errorf("unparsable script should score 0, got %.2f", weak.ScriptScore.Overall)
	}
	if cv.ScriptScore.Overall < 0.8 {
		t.Errorf("ChatVis stream script score %.2f suspiciously low: %s",
			cv.ScriptScore.Overall, cv.ScriptScore)
	}
}

// TestFaceOnPlanesRenderNonBlank: planar results seen face-on along
// their normal, at offsets whose degenerate depth extent once let
// rounding clip the whole plane away.
func TestFaceOnPlanesRenderNonBlank(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		edits    [][2]string // old, new script lines
	}{
		{"sliceclip", [][2]string{
			{"clip1.ClipType.Origin = [0.0, 0.0, 0.0]", "clip1.ClipType.Origin = [-0.054, 0.0, 0.0]"},
			{"slice1.SliceType.Origin = [0.0, 0.0, 0.0]", "slice1.SliceType.Origin = [0.0, 0.0, -0.246]"},
		}},
		{"slice", [][2]string{
			{"slice1.SliceType.Origin = [0.0, 0.0, 0.0]", "slice1.SliceType.Origin = [0.206, 0.0, 0.0]"},
			{"contour1.Isosurfaces = [0.5]", "contour1.Isosurfaces = [0.41]"},
		}},
	} {
		t.Run(tc.scenario, func(t *testing.T) {
			c := testConfig(t)
			if err := EnsureData(c.DataDir, c.DataSize); err != nil {
				t.Fatal(err)
			}
			scn, _ := ScenarioByID(tc.scenario)
			script := scn.GroundTruthScript(c.Width, c.Height)
			for _, e := range tc.edits {
				if !strings.Contains(script, e[0]) {
					t.Fatalf("ground truth lacks %q", e[0])
				}
				script = strings.Replace(script, e[0], e[1], 1)
			}
			res := (&pvpython.Runner{DataDir: c.DataDir, OutDir: c.OutDir}).Exec(script)
			if !res.OK() || len(res.Screenshots) == 0 {
				t.Fatalf("script failed:\n%s", res.Output)
			}
			img := res.Engine.Rendered[res.Screenshots[0]]
			if img == nil {
				t.Fatal("no rendered screenshot")
			}
			bg := img.RGBAAt(0, 0)
			for i := 0; i < len(img.Pix); i += 4 {
				if img.Pix[i] != bg.R || img.Pix[i+1] != bg.G || img.Pix[i+2] != bg.B {
					return
				}
			}
			t.Fatal("plane rendered blank: every pixel is background")
		})
	}
}
