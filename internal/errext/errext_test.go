package errext

import (
	"strings"
	"testing"
	"testing/quick"
)

const sampleTraceback = `some ParaView warning about OpenGL
Traceback (most recent call last):
  File "script.py", line 23, in <module>
    coneGlyph.Scalars = ['POINTS', 'Temp']
AttributeError: 'Glyph' object has no attribute 'Scalars'
`

func TestExtractSingleTraceback(t *testing.T) {
	reports := Extract(sampleTraceback)
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
	r := reports[0]
	if r.Kind != "AttributeError" {
		t.Errorf("kind = %q", r.Kind)
	}
	if !strings.Contains(r.Message, "'Glyph' object has no attribute 'Scalars'") {
		t.Errorf("message = %q", r.Message)
	}
	if r.File != "script.py" || r.Line != 23 {
		t.Errorf("location = %s:%d", r.File, r.Line)
	}
	if !strings.Contains(r.Context, "coneGlyph.Scalars") {
		t.Errorf("context = %q", r.Context)
	}
}

func TestExtractIgnoresWarnings(t *testing.T) {
	out := `Warning: something benign
vtkOutputWindow: rendering fallback in use
all good here
`
	if reports := Extract(out); len(reports) != 0 {
		t.Errorf("false positives: %+v", reports)
	}
}

func TestExtractSyntaxError(t *testing.T) {
	out := `  File "script.py", line 7
    x = (1 +
    ^
SyntaxError: '(' was never closed
`
	reports := Extract(out)
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
	if reports[0].Kind != "SyntaxError" || reports[0].Line != 7 {
		t.Errorf("report = %+v", reports[0])
	}
}

func TestExtractMultipleErrors(t *testing.T) {
	out := sampleTraceback + "\nmore output\n" + `Traceback (most recent call last):
  File "script.py", line 40, in <module>
    view.ViewUp = [0, 1, 0]
AttributeError: 'RenderView' object has no attribute 'ViewUp'
`
	reports := Extract(out)
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	if reports[1].Line != 40 {
		t.Errorf("second report = %+v", reports[1])
	}
}

func TestExtractBareExceptionLine(t *testing.T) {
	reports := Extract("NameError: name 'Tube' is not defined\n")
	if len(reports) != 1 || reports[0].Kind != "NameError" {
		t.Fatalf("reports = %+v", reports)
	}
}

func TestSummarize(t *testing.T) {
	reports := Extract(sampleTraceback)
	s := Summarize(reports)
	if !strings.Contains(s, "AttributeError") || !strings.Contains(s, "line 23") {
		t.Errorf("summary = %q", s)
	}
	if Summarize(nil) != "" {
		t.Error("empty summary expected")
	}
}

func TestExtractRealWorldNoise(t *testing.T) {
	// Output interleaved with print() lines and blank lines.
	out := `starting pipeline
reading file disk.ex2

Traceback (most recent call last):
  File "script.py", line 12, in <module>
    tube = Tube(Input=streamTracer)
RuntimeError: Tube: input must be polygonal data with lines
done
`
	reports := Extract(out)
	if len(reports) != 1 || reports[0].Kind != "RuntimeError" {
		t.Fatalf("reports = %+v", reports)
	}
}

func TestExtractNeverPanicsOnArbitraryText(t *testing.T) {
	f := func(s string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %q: %v", s, r)
			}
		}()
		_ = Extract(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExtractNoFalsePositiveOnPlainLogs(t *testing.T) {
	benign := []string{
		"reading file ml-100.vtk",
		"Rendering frame 3 of 10",
		"File saved to out/shot.png",
		"warning: using software rendering",
		"the word Error appears mid sentence without colon pattern-",
	}
	for _, line := range benign {
		if len(Extract(line+"\n")) > 0 {
			t.Errorf("false positive on %q", line)
		}
	}
}
