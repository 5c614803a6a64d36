// Package vmath provides the small linear-algebra toolkit used throughout
// the visualization engine: 3-vectors, 4x4 homogeneous matrices, planes and
// axis-aligned bounding boxes.
//
// Conventions: column vectors, right-handed coordinates, matrices stored
// row-major. Angles are in degrees at API boundaries (matching ParaView)
// and radians internally.
package vmath

import (
	"fmt"
	"math"
)

// Vec3 is a 3-component vector of float64.
type Vec3 struct{ X, Y, Z float64 }

// V constructs a Vec3.
func V(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Mul returns the component-wise scaling of a by s.
func (a Vec3) Mul(s float64) Vec3 { return Vec3{a.X * s, a.Y * s, a.Z * s} }

// Dot returns the dot product a·b.
func (a Vec3) Dot(b Vec3) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns the cross product a×b.
func (a Vec3) Cross(b Vec3) Vec3 {
	return Vec3{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Len returns the Euclidean norm.
func (a Vec3) Len() float64 { return math.Sqrt(a.Dot(a)) }

// Len2 returns the squared Euclidean norm.
func (a Vec3) Len2() float64 { return a.Dot(a) }

// Dist returns the distance between a and b.
func (a Vec3) Dist(b Vec3) float64 { return a.Sub(b).Len() }

// Norm returns a unit vector in the direction of a. The zero vector is
// returned unchanged.
func (a Vec3) Norm() Vec3 {
	l := a.Len()
	if l == 0 {
		return a
	}
	return a.Mul(1 / l)
}

// Neg returns -a.
func (a Vec3) Neg() Vec3 { return Vec3{-a.X, -a.Y, -a.Z} }

// Lerp returns a + t*(b-a).
func (a Vec3) Lerp(b Vec3, t float64) Vec3 { return a.Add(b.Sub(a).Mul(t)) }

// Min returns the component-wise minimum of a and b.
func (a Vec3) Min(b Vec3) Vec3 {
	return Vec3{math.Min(a.X, b.X), math.Min(a.Y, b.Y), math.Min(a.Z, b.Z)}
}

// Max returns the component-wise maximum of a and b.
func (a Vec3) Max(b Vec3) Vec3 {
	return Vec3{math.Max(a.X, b.X), math.Max(a.Y, b.Y), math.Max(a.Z, b.Z)}
}

// Abs returns the component-wise absolute value.
func (a Vec3) Abs() Vec3 {
	return Vec3{math.Abs(a.X), math.Abs(a.Y), math.Abs(a.Z)}
}

// Comp returns component i (0=X, 1=Y, 2=Z).
func (a Vec3) Comp(i int) float64 {
	switch i {
	case 0:
		return a.X
	case 1:
		return a.Y
	case 2:
		return a.Z
	}
	panic(fmt.Sprintf("vmath: component index %d out of range", i))
}

// Array returns the components as a [3]float64.
func (a Vec3) Array() [3]float64 { return [3]float64{a.X, a.Y, a.Z} }

// Slice returns the components as a []float64.
func (a Vec3) Slice() []float64 { return []float64{a.X, a.Y, a.Z} }

// FromSlice builds a Vec3 from the first three entries of s.
func FromSlice(s []float64) Vec3 {
	var v Vec3
	if len(s) > 0 {
		v.X = s[0]
	}
	if len(s) > 1 {
		v.Y = s[1]
	}
	if len(s) > 2 {
		v.Z = s[2]
	}
	return v
}

// NearEq reports whether a and b agree within eps per component.
func (a Vec3) NearEq(b Vec3, eps float64) bool {
	return math.Abs(a.X-b.X) <= eps && math.Abs(a.Y-b.Y) <= eps && math.Abs(a.Z-b.Z) <= eps
}

func (a Vec3) String() string { return fmt.Sprintf("(%g, %g, %g)", a.X, a.Y, a.Z) }

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Mat4 is a 4x4 matrix in row-major order.
type Mat4 [16]float64

// Identity returns the identity matrix.
func Identity() Mat4 {
	return Mat4{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
}

// MulM returns the matrix product m*n.
func (m Mat4) MulM(n Mat4) Mat4 {
	var r Mat4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			s := 0.0
			for k := 0; k < 4; k++ {
				s += m[i*4+k] * n[k*4+j]
			}
			r[i*4+j] = s
		}
	}
	return r
}

// MulPoint transforms p as a point (w=1) and performs the perspective divide.
func (m Mat4) MulPoint(p Vec3) Vec3 {
	x := m[0]*p.X + m[1]*p.Y + m[2]*p.Z + m[3]
	y := m[4]*p.X + m[5]*p.Y + m[6]*p.Z + m[7]
	z := m[8]*p.X + m[9]*p.Y + m[10]*p.Z + m[11]
	w := m[12]*p.X + m[13]*p.Y + m[14]*p.Z + m[15]
	if w != 0 && w != 1 {
		inv := 1 / w
		return Vec3{x * inv, y * inv, z * inv}
	}
	return Vec3{x, y, z}
}

// MulPointW transforms p as a point and returns the homogeneous result
// before the perspective divide.
func (m Mat4) MulPointW(p Vec3) (Vec3, float64) {
	x := m[0]*p.X + m[1]*p.Y + m[2]*p.Z + m[3]
	y := m[4]*p.X + m[5]*p.Y + m[6]*p.Z + m[7]
	z := m[8]*p.X + m[9]*p.Y + m[10]*p.Z + m[11]
	w := m[12]*p.X + m[13]*p.Y + m[14]*p.Z + m[15]
	return Vec3{x, y, z}, w
}

// MulDir transforms d as a direction (w=0, no translation).
func (m Mat4) MulDir(d Vec3) Vec3 {
	return Vec3{
		m[0]*d.X + m[1]*d.Y + m[2]*d.Z,
		m[4]*d.X + m[5]*d.Y + m[6]*d.Z,
		m[8]*d.X + m[9]*d.Y + m[10]*d.Z,
	}
}

// Translate returns a translation matrix.
func Translate(t Vec3) Mat4 {
	m := Identity()
	m[3], m[7], m[11] = t.X, t.Y, t.Z
	return m
}

// Scale returns a scaling matrix.
func Scale(s Vec3) Mat4 {
	m := Identity()
	m[0], m[5], m[10] = s.X, s.Y, s.Z
	return m
}

// RotateAxis returns a rotation of angle radians about the unit axis.
func RotateAxis(axis Vec3, angle float64) Mat4 {
	a := axis.Norm()
	c, s := math.Cos(angle), math.Sin(angle)
	t := 1 - c
	return Mat4{
		t*a.X*a.X + c, t*a.X*a.Y - s*a.Z, t*a.X*a.Z + s*a.Y, 0,
		t*a.X*a.Y + s*a.Z, t*a.Y*a.Y + c, t*a.Y*a.Z - s*a.X, 0,
		t*a.X*a.Z - s*a.Y, t*a.Y*a.Z + s*a.X, t*a.Z*a.Z + c, 0,
		0, 0, 0, 1,
	}
}

// LookAt builds a view matrix placing the camera at eye, looking at center,
// with up approximating the vertical.
func LookAt(eye, center, up Vec3) Mat4 {
	f := center.Sub(eye).Norm()
	s := f.Cross(up.Norm()).Norm()
	u := s.Cross(f)
	return Mat4{
		s.X, s.Y, s.Z, -s.Dot(eye),
		u.X, u.Y, u.Z, -u.Dot(eye),
		-f.X, -f.Y, -f.Z, f.Dot(eye),
		0, 0, 0, 1,
	}
}

// Perspective builds a perspective projection. fovY is the vertical field of
// view in radians; aspect is width/height.
func Perspective(fovY, aspect, near, far float64) Mat4 {
	f := 1 / math.Tan(fovY/2)
	return Mat4{
		f / aspect, 0, 0, 0,
		0, f, 0, 0,
		0, 0, (far + near) / (near - far), 2 * far * near / (near - far),
		0, 0, -1, 0,
	}
}

// Ortho builds an orthographic projection.
func Ortho(left, right, bottom, top, near, far float64) Mat4 {
	return Mat4{
		2 / (right - left), 0, 0, -(right + left) / (right - left),
		0, 2 / (top - bottom), 0, -(top + bottom) / (top - bottom),
		0, 0, -2 / (far - near), -(far + near) / (far - near),
		0, 0, 0, 1,
	}
}

// Plane is an oriented plane following VTK's origin+normal convention.
type Plane struct {
	Normal Vec3
	Origin Vec3
}

// NewPlane builds a plane from an origin point and a (not necessarily unit)
// normal.
func NewPlane(origin, normal Vec3) Plane {
	return Plane{Normal: normal.Norm(), Origin: origin}
}

// Eval returns the signed distance of p from the plane (positive on the
// normal side).
func (pl Plane) Eval(p Vec3) float64 {
	return pl.Normal.Dot(p.Sub(pl.Origin))
}

// AABB is an axis-aligned bounding box.
type AABB struct {
	Min, Max Vec3
}

// EmptyAABB returns a box that contains nothing; extend it with Extend.
func EmptyAABB() AABB {
	inf := math.Inf(1)
	return AABB{Min: Vec3{inf, inf, inf}, Max: Vec3{-inf, -inf, -inf}}
}

// Extend grows the box to include p.
func (b *AABB) Extend(p Vec3) {
	b.Min = b.Min.Min(p)
	b.Max = b.Max.Max(p)
}

// Union grows the box to include o.
func (b *AABB) Union(o AABB) {
	if o.IsEmpty() {
		return
	}
	b.Extend(o.Min)
	b.Extend(o.Max)
}

// IsEmpty reports whether the box contains no points.
func (b AABB) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Center returns the box center.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Mul(0.5) }

// Size returns the box extents per axis.
func (b AABB) Size() Vec3 { return b.Max.Sub(b.Min) }

// Diagonal returns the length of the main diagonal.
func (b AABB) Diagonal() float64 { return b.Size().Len() }

// Contains reports whether p lies inside or on the box.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Expanded returns the box grown by pad on every side.
func (b AABB) Expanded(pad float64) AABB {
	d := Vec3{pad, pad, pad}
	return AABB{Min: b.Min.Sub(d), Max: b.Max.Add(d)}
}
