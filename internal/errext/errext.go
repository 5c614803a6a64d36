// Package errext implements the paper's error detection and extraction
// tool (§III-C): it scans PvPython output for Python tracebacks and
// returns the error messages to feed back to the LLM.
//
// Following the paper's description, the extractor splits the output into
// lines, identifies tracebacks (lines starting with "File"), gathers
// subsequent lines until it reaches the error line (such as
// "AttributeError: ..."), and compiles the collected messages.
package errext

import (
	"regexp"
	"strings"
)

// ErrorReport is one extracted error: the exception line plus its
// traceback context.
type ErrorReport struct {
	// Kind is the exception class name, e.g. "AttributeError".
	Kind string
	// Message is the text after "Kind:".
	Message string
	// File and Line locate the failing statement when present.
	File string
	Line int
	// Context is the full extracted traceback text.
	Context string
}

// errLineRe matches Python exception lines: "SomeError: message".
var errLineRe = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*(?:Error|Exception|Warning|Interrupt|Exit)):\s?(.*)$`)

// fileLineRe matches traceback location lines.
var fileLineRe = regexp.MustCompile(`^\s*File "([^"]+)", line (\d+)`)

// Extract scans combined PvPython output and returns every error found.
// Warnings and other system messages are ignored; only genuine tracebacks
// and exception lines are reported.
func Extract(output string) []ErrorReport {
	lines := strings.Split(output, "\n")
	var reports []ErrorReport
	var collecting bool
	var context []string
	var file string
	var lineNo int

	flushOn := func(kind, msg string) {
		reports = append(reports, ErrorReport{
			Kind:    kind,
			Message: strings.TrimSpace(msg),
			File:    file,
			Line:    lineNo,
			Context: strings.TrimRight(strings.Join(context, "\n"), "\n"),
		})
		collecting = false
		context = nil
		file = ""
		lineNo = 0
	}

	for _, raw := range lines {
		line := strings.TrimRight(raw, "\r")
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "Traceback (most recent call last):") {
			collecting = true
			context = []string{line}
			continue
		}
		if m := fileLineRe.FindStringSubmatch(line); m != nil {
			// Tracebacks "typically start with File" (paper): begin or
			// continue collecting.
			if !collecting {
				collecting = true
				context = nil
			}
			context = append(context, line)
			file = m[1]
			lineNo = atoiSafe(m[2])
			continue
		}
		if collecting {
			context = append(context, line)
			if m := errLineRe.FindStringSubmatch(trimmed); m != nil {
				flushOn(m[1], m[2])
			}
			continue
		}
		// Bare exception line without a traceback (some failures print
		// only the final line).
		if m := errLineRe.FindStringSubmatch(trimmed); m != nil {
			context = []string{line}
			flushOn(m[1], m[2])
		}
	}
	return reports
}

// Summarize formats the extracted errors as the prompt block ChatVis
// sends back to the LLM for correction.
func Summarize(reports []ErrorReport) string {
	if len(reports) == 0 {
		return ""
	}
	var b strings.Builder
	for i, r := range reports {
		if i > 0 {
			b.WriteString("\n\n")
		}
		b.WriteString(r.Context)
	}
	return b.String()
}

func atoiSafe(s string) int {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return n
		}
		n = n*10 + int(c-'0')
	}
	return n
}
