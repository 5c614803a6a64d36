package plan

import (
	"fmt"
	"sort"
	"strings"
)

// Diagnostic severities.
const (
	SevError   = "error"
	SevWarning = "warning"
	SevInfo    = "info"
)

// Diagnostic kinds.
const (
	DiagUnknownClass    = "unknown-class"
	DiagUnknownProperty = "unknown-property"
	DiagUnknownMethod   = "unknown-method"
	DiagTypeMismatch    = "type-mismatch"
	DiagViewByName      = "view-by-name"
	DiagBadInput        = "bad-input"
	// DiagUnmodelled marks a statement the compiler dropped or captured
	// only in part: only the interpreter can then run the script.
	DiagUnmodelled = "unmodelled"
)

// Diagnostic is one structured pre-execution finding: what is wrong,
// where (stage + source line), and on which class/property — everything
// a repair pass needs to fix the script without paying for an engine
// run first.
type Diagnostic struct {
	Kind     string `json:"kind"`
	Severity string `json:"severity"`
	Stage    string `json:"stage,omitempty"`
	Class    string `json:"class,omitempty"`
	Property string `json:"property,omitempty"`
	Line     int    `json:"line,omitempty"`
	Message  string `json:"message"`
}

// String renders one diagnostic compactly.
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%s]", d.Severity, d.Kind)
	if d.Line > 0 {
		fmt.Fprintf(&b, " line %d", d.Line)
	}
	if d.Stage != "" {
		fmt.Fprintf(&b, " stage %s", d.Stage)
	}
	b.WriteString(": " + d.Message)
	return b.String()
}

// Errors filters the diagnostics down to error severity.
func Errors(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Severity == SevError {
			out = append(out, d)
		}
	}
	return out
}

// HasErrors reports whether any diagnostic is an error.
func HasErrors(diags []Diagnostic) bool { return len(Errors(diags)) > 0 }

// FullyModelled reports whether a compiled script's plan captures every
// effect of the script: no error and no unmodelled diagnostic. Executing
// such a plan is equivalent to interpreting the script.
func FullyModelled(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == SevError || d.Kind == DiagUnmodelled {
			return false
		}
	}
	return true
}

// FormatDiagnostics renders diagnostics one per line, sorted by source
// line, for prompts and CLI output.
func FormatDiagnostics(diags []Diagnostic) string {
	sorted := append([]Diagnostic(nil), diags...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Line < sorted[j].Line })
	var b strings.Builder
	for _, d := range sorted {
		b.WriteString(d.String() + "\n")
	}
	return b.String()
}

// Validate checks a plan against the schema and returns structured
// diagnostics: unknown classes, unknown (hallucinated) properties, type
// mismatches, invalid helper members, unknown camera operations, and
// view-by-name display attachments. It works on any plan — compiled
// from a script (with source positions) or built programmatically.
func Validate(p *Plan, s *Schema) []Diagnostic {
	var diags []Diagnostic
	add := func(d Diagnostic) { diags = append(diags, d) }

	for _, st := range p.Stages {
		switch st.Kind {
		case StageScreenshot:
			for name := range st.Props {
				if !screenshotProps[name] {
					add(Diagnostic{
						Kind: DiagUnknownProperty, Severity: SevWarning,
						Stage: st.ID, Class: ScreenshotClass, Property: name,
						Line:    st.propLine(name),
						Message: fmt.Sprintf("SaveScreenshot() ignores unknown option %q", name),
					})
				}
			}
			continue
		case StageView, StageDisplay, StageSource, StageFilter:
		default:
			add(Diagnostic{
				Kind: DiagUnknownClass, Severity: SevError, Stage: st.ID,
				Line:    st.Line,
				Message: fmt.Sprintf("unknown stage kind %q", st.Kind),
			})
			continue
		}

		cls := s.Class(st.Class)
		if cls == nil {
			add(Diagnostic{
				Kind: DiagUnknownClass, Severity: SevError, Stage: st.ID,
				Class: st.Class, Line: st.Line,
				Message: fmt.Sprintf("name '%s' is not defined", st.Class),
			})
			continue
		}

		for name, v := range st.Props {
			if st.Kind == StageDisplay && name == PropViewName {
				add(Diagnostic{
					Kind: DiagViewByName, Severity: SevError, Stage: st.ID,
					Class: ViewClass, Property: name, Line: st.propLine(name),
					Message: fmt.Sprintf("view referenced by name %q before a view proxy exists — pass the GetActiveViewOrCreate result instead", v.Str),
				})
				continue
			}
			if !cls.HasMember(name) {
				add(Diagnostic{
					Kind: DiagUnknownProperty, Severity: SevError, Stage: st.ID,
					Class: st.Class, Property: name, Line: st.propLine(name),
					Message: fmt.Sprintf("'%s' object has no attribute '%s'", st.Class, name),
				})
				continue
			}
			if prop, ok := cls.Props[name]; ok && !TypeAccepts(prop.Type, v) {
				add(Diagnostic{
					Kind: DiagTypeMismatch, Severity: SevError, Stage: st.ID,
					Class: st.Class, Property: name, Line: st.propLine(name),
					Message: fmt.Sprintf("%s.%s expects %s, got %s", st.Class, name, prop.Type, v.PyLit()),
				})
				continue
			}
			if v.Kind == KindHelper {
				diags = append(diags, validateHelper(s, st, name, v)...)
			}
		}

		for _, op := range st.Camera {
			if cls.Methods[op] || s.Functions[op] {
				continue
			}
			add(Diagnostic{
				Kind: DiagUnknownMethod, Severity: SevError, Stage: st.ID,
				Class: st.Class, Property: op, Line: st.Line,
				Message: fmt.Sprintf("'%s' object has no attribute '%s'", st.Class, op),
			})
		}
	}
	return diags
}

// validateHelper checks a nested helper value's class and properties.
func validateHelper(s *Schema, st *Stage, propName string, v Value) []Diagnostic {
	var diags []Diagnostic
	hcls := s.Class(v.Class)
	if hcls == nil || hcls.Kind != "helper" {
		return []Diagnostic{{
			Kind: DiagUnknownClass, Severity: SevError, Stage: st.ID,
			Class: st.Class, Property: propName, Line: st.propLine(propName),
			Message: fmt.Sprintf("unknown %s '%s'", propName, v.Class),
		}}
	}
	for name, pv := range v.Obj {
		line := st.propLine(propName + "." + name)
		if !hcls.HasMember(name) {
			diags = append(diags, Diagnostic{
				Kind: DiagUnknownProperty, Severity: SevError, Stage: st.ID,
				Class: v.Class, Property: name, Line: line,
				Message: fmt.Sprintf("'%s' object has no attribute '%s'", v.Class, name),
			})
			continue
		}
		if prop, ok := hcls.Props[name]; ok && !TypeAccepts(prop.Type, pv) {
			diags = append(diags, Diagnostic{
				Kind: DiagTypeMismatch, Severity: SevError, Stage: st.ID,
				Class: v.Class, Property: name, Line: line,
				Message: fmt.Sprintf("%s.%s expects %s, got %s", v.Class, name, prop.Type, pv.PyLit()),
			})
		}
	}
	return diags
}
