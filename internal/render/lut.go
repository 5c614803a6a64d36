package render

import (
	"math"
	"sort"
)

// Color is an RGB triple with components in [0,1].
type Color struct{ R, G, B float64 }

// Lerp blends two colors.
func (c Color) Lerp(o Color, t float64) Color {
	return Color{
		R: c.R + t*(o.R-c.R),
		G: c.G + t*(o.G-c.G),
		B: c.B + t*(o.B-c.B),
	}
}

// Scale multiplies all components by s, clamped to [0,1].
func (c Color) Scale(s float64) Color {
	return Color{clamp01(c.R * s), clamp01(c.G * s), clamp01(c.B * s)}
}

// clamp01 is math.Max(0, math.Min(1, v)) in plain comparisons, with the
// same bits: a negative zero becomes +0 and any NaN math.NaN().
func clamp01(v float64) float64 {
	switch {
	case v >= 1:
		return 1
	case v > 0:
		return v
	case v <= 0:
		return 0
	}
	return math.NaN()
}

// Well-known colors used by the ParaView layer.
var (
	White = Color{1, 1, 1}
	Black = Color{0, 0, 0}
	Red   = Color{1, 0, 0}
	// DefaultSurface is ParaView's default solid color for geometry.
	DefaultSurface = Color{1, 1, 1}
	// DefaultBackground is ParaView's default gray-blue background.
	DefaultBackground = Color{0.32, 0.34, 0.43}
)

// ctfPoint is one control point of a transfer function.
type ctfPoint struct {
	x float64
	c Color
}

// LookupTable is a piecewise-linear color transfer function over a scalar
// range, like vtkColorTransferFunction.
type LookupTable struct {
	points []ctfPoint
	// NaNColor is returned for NaN input (ParaView default dull yellow).
	NaNColor Color
}

// NewCoolToWarm builds ParaView's default "Cool to Warm" diverging map
// over [lo, hi].
func NewCoolToWarm(lo, hi float64) *LookupTable {
	if hi <= lo {
		hi = lo + 1
	}
	mid := (lo + hi) / 2
	return &LookupTable{
		points: []ctfPoint{
			{lo, Color{0.231, 0.298, 0.753}},
			{mid, Color{0.865, 0.865, 0.865}},
			{hi, Color{0.706, 0.016, 0.150}},
		},
		NaNColor: Color{1, 1, 0},
	}
}

// AddPoint inserts a control point; points are kept sorted by x.
func (l *LookupTable) AddPoint(x float64, c Color) {
	l.points = append(l.points, ctfPoint{x, c})
	sort.Slice(l.points, func(i, j int) bool { return l.points[i].x < l.points[j].x })
}

// Range returns the x extent of the control points.
func (l *LookupTable) Range() (lo, hi float64) {
	if len(l.points) == 0 {
		return 0, 1
	}
	return l.points[0].x, l.points[len(l.points)-1].x
}

// RescaleTo linearly remaps all control points onto [lo, hi], like
// ParaView's RescaleTransferFunctionToDataRange.
func (l *LookupTable) RescaleTo(lo, hi float64) {
	if len(l.points) == 0 || hi <= lo {
		return
	}
	oldLo, oldHi := l.Range()
	span := oldHi - oldLo
	if span == 0 {
		span = 1
	}
	for i := range l.points {
		t := (l.points[i].x - oldLo) / span
		l.points[i].x = lo + t*(hi-lo)
	}
}

// Map returns the color for scalar value x (clamped to the range).
func (l *LookupTable) Map(x float64) Color {
	if math.IsNaN(x) {
		return l.NaNColor
	}
	n := len(l.points)
	if n == 0 {
		return White
	}
	if x <= l.points[0].x {
		return l.points[0].c
	}
	if x >= l.points[n-1].x {
		return l.points[n-1].c
	}
	i := sort.Search(n, func(i int) bool { return l.points[i].x >= x }) // first >= x
	p0, p1 := l.points[i-1], l.points[i]
	t := 0.0
	if p1.x > p0.x {
		t = (x - p0.x) / (p1.x - p0.x)
	}
	return p0.c.Lerp(p1.c, t)
}

// otfPoint is one control point of an opacity function.
type otfPoint struct {
	x float64
	a float64
}

// OpacityFunction is a piecewise-linear scalar-to-opacity map, like
// vtkPiecewiseFunction.
type OpacityFunction struct {
	points []otfPoint
}

// NewDefaultOpacity builds ParaView's default volume-rendering opacity
// ramp over [lo, hi]: transparent at the low end rising linearly to opaque.
func NewDefaultOpacity(lo, hi float64) *OpacityFunction {
	if hi <= lo {
		hi = lo + 1
	}
	return &OpacityFunction{points: []otfPoint{{lo, 0}, {hi, 1}}}
}

// AddPoint inserts a control point; points stay sorted by x.
func (o *OpacityFunction) AddPoint(x, a float64) {
	o.points = append(o.points, otfPoint{x, a})
	sort.Slice(o.points, func(i, j int) bool { return o.points[i].x < o.points[j].x })
}

// Range returns the x extent of the control points.
func (o *OpacityFunction) Range() (lo, hi float64) {
	if len(o.points) == 0 {
		return 0, 1
	}
	return o.points[0].x, o.points[len(o.points)-1].x
}

// RescaleTo linearly remaps all control points onto [lo, hi].
func (o *OpacityFunction) RescaleTo(lo, hi float64) {
	if len(o.points) == 0 || hi <= lo {
		return
	}
	oldLo, oldHi := o.Range()
	span := oldHi - oldLo
	if span == 0 {
		span = 1
	}
	for i := range o.points {
		t := (o.points[i].x - oldLo) / span
		o.points[i].x = lo + t*(hi-lo)
	}
}

// Map returns the opacity for scalar value x (clamped).
func (o *OpacityFunction) Map(x float64) float64 {
	n := len(o.points)
	if n == 0 || math.IsNaN(x) {
		return 0
	}
	if x <= o.points[0].x {
		return o.points[0].a
	}
	if x >= o.points[n-1].x {
		return o.points[n-1].a
	}
	i := sort.Search(n, func(i int) bool { return o.points[i].x >= x })
	p0, p1 := o.points[i-1], o.points[i]
	t := 0.0
	if p1.x > p0.x {
		t = (x - p0.x) / (p1.x - p0.x)
	}
	return p0.a + t*(p1.a-p0.a)
}
