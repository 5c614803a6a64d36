// Package render is the software rendering engine: a z-buffered
// rasterizer for surfaces, wireframes, lines and points, a front-to-back
// volume ray caster, ParaView-style cameras and color transfer functions,
// and PNG output. It renders the dataset model into images the evaluation
// harness can diff against ground truth.
package render

import (
	"math"

	"chatvis/internal/vmath"
)

// Camera mirrors ParaView's render-view camera: a position, focal point,
// view-up vector and vertical view angle (degrees). The zero value is not
// useful; use NewCamera.
type Camera struct {
	Position   vmath.Vec3
	FocalPoint vmath.Vec3
	ViewUp     vmath.Vec3
	// ViewAngle is the vertical field of view in degrees (ParaView default
	// 30).
	ViewAngle float64
	// ParallelProjection switches to an orthographic projection with
	// half-height ParallelScale.
	ParallelProjection bool
	ParallelScale      float64
}

// NewCamera returns the ParaView default camera: at +z looking at the
// origin with +y up and a 30 degree view angle.
func NewCamera() *Camera {
	return &Camera{
		Position:   vmath.V(0, 0, 6.69),
		FocalPoint: vmath.V(0, 0, 0),
		ViewUp:     vmath.V(0, 1, 0),
		ViewAngle:  30,
	}
}

// ViewMatrix returns the world-to-camera transform.
func (c *Camera) ViewMatrix() vmath.Mat4 {
	return vmath.LookAt(c.Position, c.FocalPoint, c.ViewUp)
}

// ProjMatrix returns the camera-to-clip transform for the given aspect
// ratio and near/far distances.
func (c *Camera) ProjMatrix(aspect, near, far float64) vmath.Mat4 {
	if c.ParallelProjection {
		h := c.ParallelScale
		if h <= 0 {
			h = 1
		}
		w := h * aspect
		return vmath.Ortho(-w, w, -h, h, near, far)
	}
	return vmath.Perspective(vmath.Radians(c.ViewAngle), aspect, near, far)
}

// Distance returns the distance from the camera to its focal point.
func (c *Camera) Distance() float64 { return c.Position.Dist(c.FocalPoint) }

// Direction returns the unit view direction (position toward focal point).
func (c *Camera) Direction() vmath.Vec3 { return c.FocalPoint.Sub(c.Position).Norm() }

// ResetToBounds repositions the camera along its current view direction so
// the given bounds fit in view, reproducing ParaView's ResetCamera.
func (c *Camera) ResetToBounds(b vmath.AABB) {
	if b.IsEmpty() {
		return
	}
	center := b.Center()
	radius := b.Diagonal() / 2
	// Non-finite bounds (a half-empty box, or NaN geometry) would place
	// the camera at NaN; leave it where it is instead.
	if math.IsNaN(center.X) || math.IsNaN(center.Y) || math.IsNaN(center.Z) ||
		math.IsInf(radius, 0) || math.IsNaN(radius) {
		return
	}
	if radius == 0 {
		radius = 1
	}
	dir := c.Direction()
	if dir.Len() == 0 {
		dir = vmath.V(0, 0, -1)
	}
	// Fit the bounding sphere inside the vertical view angle with
	// ParaView's comfortable margin.
	dist := radius / math.Sin(vmath.Radians(c.ViewAngle)/2)
	c.FocalPoint = center
	c.Position = center.Sub(dir.Mul(dist))
	c.ParallelScale = radius
	// Fix a degenerate up vector (parallel to the view direction).
	if math.Abs(c.ViewUp.Norm().Dot(dir)) > 0.999 {
		c.ViewUp = vmath.V(0, 1, 0)
		if math.Abs(c.ViewUp.Dot(dir)) > 0.999 {
			c.ViewUp = vmath.V(0, 0, 1)
		}
	}
}

// LookFrom orients the camera to look at the bounds centre from the given
// direction (unit not required), then fits the bounds. up selects the view
// up; pass the zero vector for an automatic choice. This backs the
// ParaView "ResetActiveCameraToPositiveX/NegativeY/…" helpers.
func (c *Camera) LookFrom(dir vmath.Vec3, up vmath.Vec3, b vmath.AABB) {
	if b.IsEmpty() {
		// An empty scene has no centre to aim at; fall back to the unit
		// box so the orientation still applies without NaN positions.
		b = vmath.AABB{Min: vmath.V(-1, -1, -1), Max: vmath.V(1, 1, 1)}
	}
	d := dir.Norm()
	if d.Len() == 0 {
		d = vmath.V(0, 0, 1)
	}
	if up.Len() == 0 {
		up = vmath.V(0, 0, 1)
		if math.Abs(d.Dot(up)) > 0.999 {
			up = vmath.V(0, 1, 0)
		}
	}
	c.ViewUp = up.Norm()
	c.Position = b.Center().Add(d) // direction encoded; ResetToBounds sets distance
	c.FocalPoint = b.Center()
	c.ResetToBounds(b)
}

// Isometric points the camera along the (1,1,1) diagonal at the bounds,
// matching ParaView's "isometric view" toolbar action (+X+Y+Z octant, z up).
func (c *Camera) Isometric(b vmath.AABB) {
	c.LookFrom(vmath.V(1, 1, 1), vmath.V(0, 0, 1), b)
}

// Azimuth rotates the camera about the view-up axis through the focal
// point by the given angle in degrees.
func (c *Camera) Azimuth(deg float64) {
	rot := vmath.RotateAxis(c.ViewUp.Norm(), vmath.Radians(deg))
	rel := c.Position.Sub(c.FocalPoint)
	c.Position = c.FocalPoint.Add(rot.MulDir(rel))
}

// Elevation rotates the camera about the horizontal axis through the focal
// point by the given angle in degrees.
func (c *Camera) Elevation(deg float64) {
	right := c.Direction().Cross(c.ViewUp).Norm()
	rot := vmath.RotateAxis(right, vmath.Radians(deg))
	rel := c.Position.Sub(c.FocalPoint)
	c.Position = c.FocalPoint.Add(rot.MulDir(rel))
	c.ViewUp = rot.MulDir(c.ViewUp).Norm()
}

// Zoom moves the camera toward (factor > 1) or away from (factor < 1) the
// focal point.
func (c *Camera) Zoom(factor float64) {
	if factor <= 0 {
		return
	}
	rel := c.Position.Sub(c.FocalPoint)
	c.Position = c.FocalPoint.Add(rel.Mul(1 / factor))
	c.ParallelScale /= factor
}

// clippingRange computes near/far distances that enclose the bounds as
// seen from the camera, with guards against degenerate values.
func (c *Camera) clippingRange(b vmath.AABB) (near, far float64) {
	if b.IsEmpty() {
		return 0.1, 1000
	}
	dir := c.Direction()
	near, far = math.Inf(1), math.Inf(-1)
	for i := 0; i < 8; i++ {
		corner := vmath.V(
			pick(i&1 == 0, b.Min.X, b.Max.X),
			pick(i&2 == 0, b.Min.Y, b.Max.Y),
			pick(i&4 == 0, b.Min.Z, b.Max.Z))
		d := corner.Sub(c.Position).Dot(dir)
		near = math.Min(near, d)
		far = math.Max(far, d)
	}
	pad := (far - near) * 0.05
	if scale := math.Max(b.Diagonal(), math.Abs(far)); far-near <= 1e-9*scale {
		// A plane seen face-on has no depth extent, so the pad above is
		// none and rounding decides whether the whole plane falls outside
		// [near, far]. Pad such scenes by a sliver of their size instead.
		pad = 1e-3 * scale
	}
	near -= pad
	far += pad
	minNear := far * 1e-4
	if near < minNear {
		near = minNear
	}
	if far <= near {
		far = near * 10
	}
	return near, far
}

func pick(cond bool, a, b float64) float64 {
	if cond {
		return a
	}
	return b
}
