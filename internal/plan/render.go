package plan

import (
	"fmt"
	"sort"
	"strings"
)

// Script renders the plan back to a canonical ParaView Python script.
// Rendering is the inverse of Compile up to normalization: compiling the
// rendered script and normalizing yields a plan byte-equal to the
// normalized input — including hallucinated properties, which are
// reproduced so that defective plans round-trip faithfully.
func (p *Plan) Script() string {
	var b strings.Builder
	names := p.renderNames()
	b.WriteString("from paraview.simple import *\n")
	// ExecPlan resets each view's camera at its first render, after its
	// camera operations. With an operation on every view, the reset
	// changes nothing and the script turns it off; a view without one
	// needs it, as a plan run does.
	if p.everyViewHasCamera() {
		b.WriteString("paraview.simple._DisableFirstRenderCameraReset()\n")
	}
	b.WriteString("\n")

	// Pipeline stages.
	for i, st := range p.Stages {
		if !st.IsPipeline() {
			continue
		}
		var args []string
		if len(st.Inputs) > 0 {
			args = append(args, "Input="+names[st.Inputs[0]])
		}
		helperProps := []string{}
		for name, v := range st.Props {
			if v.Kind == KindHelper {
				helperProps = append(helperProps, name)
			}
		}
		sort.Strings(helperProps)
		for _, name := range helperProps {
			args = append(args, fmt.Sprintf("%s='%s'", name, st.Props[name].Class))
		}
		fmt.Fprintf(&b, "%s = %s(%s)\n", names[i], st.Class, strings.Join(args, ", "))
		for _, name := range sortedProps(st.Props) {
			v := st.Props[name]
			if v.Kind == KindHelper {
				for _, oname := range sortedProps(v.Obj) {
					fmt.Fprintf(&b, "%s.%s.%s = %s\n", names[i], name, oname, v.Obj[oname].PyLit())
				}
				continue
			}
			fmt.Fprintf(&b, "%s.%s = %s\n", names[i], name, v.PyLit())
		}
		b.WriteString("\n")
	}

	// Views.
	firstView := true
	for i, st := range p.Stages {
		if st.Kind != StageView {
			continue
		}
		if firstView {
			fmt.Fprintf(&b, "%s = GetActiveViewOrCreate('RenderView')\n", names[i])
			firstView = false
		} else {
			fmt.Fprintf(&b, "%s = CreateRenderView()\n", names[i])
		}
		for _, name := range sortedProps(st.Props) {
			fmt.Fprintf(&b, "%s.%s = %s\n", names[i], name, st.Props[name].PyLit())
		}
		b.WriteString("\n")
	}

	// Displays.
	for i, st := range p.Stages {
		if st.Kind != StageDisplay {
			continue
		}
		src := "GetActiveSource()"
		if len(st.Inputs) > 0 {
			src = names[st.Inputs[0]]
		}
		viewArg := ""
		if vn, ok := st.Props[PropViewName]; ok {
			viewArg = ", " + vn.PyLit()
		} else if len(st.Inputs) > 1 {
			viewArg = ", " + names[st.Inputs[1]]
		}
		fmt.Fprintf(&b, "%s = Show(%s%s)\n", names[i], src, viewArg)
		if rep, ok := st.Props[PropRepresentation]; ok {
			fmt.Fprintf(&b, "%s.SetRepresentationType(%s)\n", names[i], rep.PyLit())
		}
		for _, name := range sortedProps(st.Props) {
			switch name {
			case PropRepresentation, PropColorArray, PropRescaleTF, PropViewName:
				continue
			}
			fmt.Fprintf(&b, "%s.%s = %s\n", names[i], name, st.Props[name].PyLit())
		}
		if ca, ok := st.Props[PropColorArray]; ok {
			fmt.Fprintf(&b, "ColorBy(%s, %s)\n", names[i], colorByArg(ca))
		}
		if v, ok := st.Props[PropRescaleTF]; ok {
			fmt.Fprintf(&b, "%s.RescaleTransferFunctionToDataRange(%s)\n", names[i], v.PyLit())
		}
	}
	b.WriteString("\n")

	// Camera operations, per view, in recorded order.
	for i, st := range p.Stages {
		if st.Kind != StageView {
			continue
		}
		for _, op := range st.Camera {
			fmt.Fprintf(&b, "%s.%s()\n", names[i], op)
		}
	}

	// Screenshots.
	for _, st := range p.Stages {
		if st.Kind != StageScreenshot {
			continue
		}
		file := "'screenshot.png'"
		if v, ok := st.Props[PropFilename]; ok {
			file = v.PyLit()
		}
		viewArg := ""
		if vn, ok := st.Props[PropViewName]; ok {
			viewArg = ", " + vn.PyLit()
		} else if len(st.Inputs) > 0 {
			viewArg = ", " + names[st.Inputs[0]]
		}
		fmt.Fprintf(&b, "\nSaveScreenshot(%s%s", file, viewArg)
		for _, name := range sortedProps(st.Props) {
			switch name {
			case PropFilename, PropViewName:
				continue
			}
			fmt.Fprintf(&b, ",\n    %s=%s", name, st.Props[name].PyLit())
		}
		b.WriteString(")\n")
	}
	return b.String()
}

// everyViewHasCamera reports whether every view stage has a camera
// operation.
func (p *Plan) everyViewHasCamera() bool {
	for _, st := range p.Stages {
		if st.Kind == StageView && len(st.Camera) == 0 {
			return false
		}
	}
	return true
}

// colorByArg renders a ColorArrayName value as the ColorBy argument.
func colorByArg(v Value) string {
	if v.Kind == KindList && len(v.List) == 2 {
		if v.List[1].Kind == KindNone {
			return "None"
		}
		return fmt.Sprintf("(%s, %s)", v.List[0].PyLit(), v.List[1].PyLit())
	}
	return v.PyLit()
}

func sortedProps[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// renderNames assigns unique, valid Python identifiers to every stage.
func (p *Plan) renderNames() []string {
	names := make([]string, len(p.Stages))
	used := map[string]bool{}
	for i, st := range p.Stages {
		name := sanitizeIdent(st.ID)
		if name == "" {
			name = fmt.Sprintf("stage%d", i+1)
		}
		for used[name] {
			name += "_"
		}
		used[name] = true
		names[i] = name
	}
	return names
}

func sanitizeIdent(s string) string {
	var b strings.Builder
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteString("v")
			}
			b.WriteRune(r)
		default:
			b.WriteString("_")
		}
	}
	return b.String()
}
