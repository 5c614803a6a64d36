package render

import (
	"context"
	"math"

	"chatvis/internal/data"
	"chatvis/internal/par"
	"chatvis/internal/vmath"
)

// castVolume ray-casts a volume actor into the framebuffer with
// front-to-back alpha compositing, depth-tested against already-rendered
// geometry. Row bands are processed in parallel on the par worker pool;
// each ray owns its pixel, so output is byte-identical for any worker
// count.
func (r *Renderer) castVolume(ctx context.Context, fb *Framebuffer, v *VolumeActor, view, proj vmath.Mat4, near, far float64) error {
	im := v.Image
	field := im.Points.Get(v.Field)
	if field == nil || field.NumComponents != 1 {
		return nil
	}
	bounds := im.Bounds()
	diag := bounds.Diagonal()
	if diag == 0 {
		return nil
	}
	sample := v.SampleDistance
	if sample <= 0 {
		sample = 1.0 / 300
	}
	step := diag * sample
	// Opacity correction reference: OTF is defined per unit step of the
	// same length, so no correction needed with a single step size.

	// Inverse view transform: camera rays to world space.
	camPos := r.Camera.Position
	// Build per-pixel ray directions from the NDC frustum.
	invAspect := float64(fb.W) / float64(fb.H)
	tanHalf := math.Tan(vmath.Radians(r.Camera.ViewAngle) / 2)
	viewDir := r.Camera.Direction()
	right := viewDir.Cross(r.Camera.ViewUp).Norm()
	up := right.Cross(viewDir).Norm()

	mvp := proj.MulM(view)

	parallel := r.Camera.ParallelProjection
	pscale := r.Camera.ParallelScale
	if pscale <= 0 {
		pscale = 1
	}

	return par.For(ctx, fb.H, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < fb.W; x++ {
				ndcX := (float64(x)+0.5)/float64(fb.W)*2 - 1
				ndcY := 1 - (float64(y)+0.5)/float64(fb.H)*2
				var origin, dir vmath.Vec3
				if parallel {
					origin = camPos.
						Add(right.Mul(ndcX * pscale * invAspect)).
						Add(up.Mul(ndcY * pscale))
					dir = viewDir
				} else {
					origin = camPos
					dir = viewDir.
						Add(right.Mul(ndcX * tanHalf * invAspect)).
						Add(up.Mul(ndcY * tanHalf)).Norm()
				}
				r.castRay(fb, v, field, origin, dir, bounds, step, mvp, x, y)
			}
		}
	})
}

// castRay composites one ray through the volume, sampling field.
func (r *Renderer) castRay(fb *Framebuffer, v *VolumeActor, field *data.Field, origin, dir vmath.Vec3, bounds vmath.AABB, step float64, mvp vmath.Mat4, x, y int) {
	t0, t1, hit := rayBox(origin, dir, bounds)
	if !hit {
		return
	}
	if t0 < 0 {
		t0 = 0
	}
	idx := y*fb.W + x
	zLimit := fb.Depth[idx]

	var accum Color
	alpha := 0.0
	im := v.Image
	for t := t0; t <= t1; t += step {
		p := origin.Add(dir.Mul(t))
		// Depth test against rendered geometry.
		if !math.IsInf(zLimit, 1) {
			ndc, w := mvp.MulPointW(p)
			if w != 0 && ndc.Z/w > zLimit {
				break
			}
		}
		val, ok := im.SampleScalar(field, p)
		if !ok {
			continue
		}
		a := v.OTF.Map(val)
		if a <= 0 {
			continue
		}
		// Per-step opacity is treated as defined for this step length.
		c := v.CTF.Map(val)
		weight := (1 - alpha) * a
		accum.R += c.R * weight
		accum.G += c.G * weight
		accum.B += c.B * weight
		alpha += weight
		if alpha >= 0.98 {
			break
		}
	}
	if alpha <= 0 {
		return
	}
	bg := fb.Color[idx]
	fb.Color[idx] = Color{
		R: accum.R + bg.R*(1-alpha),
		G: accum.G + bg.G*(1-alpha),
		B: accum.B + bg.B*(1-alpha),
	}
}

// rayBox intersects a ray with an AABB, returning entry/exit parameters.
func rayBox(origin, dir vmath.Vec3, b vmath.AABB) (t0, t1 float64, hit bool) {
	t0, t1 = math.Inf(-1), math.Inf(1)
	for axis := 0; axis < 3; axis++ {
		o := origin.Comp(axis)
		d := dir.Comp(axis)
		lo := b.Min.Comp(axis)
		hi := b.Max.Comp(axis)
		if math.Abs(d) < 1e-15 {
			if o < lo || o > hi {
				return 0, 0, false
			}
			continue
		}
		ta := (lo - o) / d
		tb := (hi - o) / d
		if ta > tb {
			ta, tb = tb, ta
		}
		if ta > t0 {
			t0 = ta
		}
		if tb < t1 {
			t1 = tb
		}
		if t0 > t1 {
			return 0, 0, false
		}
	}
	return t0, t1, true
}
