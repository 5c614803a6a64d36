package vmath

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestVecBasics(t *testing.T) {
	a := V(1, 2, 3)
	b := V(4, -5, 6)
	if got := a.Add(b); got != V(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Mul(2); got != V(2, 4, 6) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Dot(b); got != 1*4+2*-5+3*6 {
		t.Errorf("Dot = %v", got)
	}
	if got := V(3, 4, 0).Len(); got != 5 {
		t.Errorf("Len = %v", got)
	}
	if got := a.Neg(); got != V(-1, -2, -3) {
		t.Errorf("Neg = %v", got)
	}
}

func TestCrossOrthogonality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a, b := V(ax, ay, az), V(bx, by, bz)
		// Keep magnitudes sane so float error stays bounded.
		if a.Len() > 1e6 || b.Len() > 1e6 {
			return true
		}
		c := a.Cross(b)
		tol := 1e-6 * (1 + a.Len()*b.Len())
		return almostEq(c.Dot(a), 0, tol) && almostEq(c.Dot(b), 0, tol)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCrossRightHanded(t *testing.T) {
	if got := V(1, 0, 0).Cross(V(0, 1, 0)); !got.NearEq(V(0, 0, 1), 1e-15) {
		t.Errorf("x cross y = %v, want z", got)
	}
}

func TestNormUnitLength(t *testing.T) {
	f := func(x, y, z float64) bool {
		v := V(x, y, z)
		if v.Len() == 0 || math.IsInf(v.Len(), 0) || math.IsNaN(v.Len()) {
			return true
		}
		return almostEq(v.Norm().Len(), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerpEndpoints(t *testing.T) {
	a, b := V(1, 2, 3), V(-4, 0, 9)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); !got.NearEq(b, 1e-15) {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); !got.NearEq(V(-1.5, 1, 6), 1e-15) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestCompAccessors(t *testing.T) {
	v := V(7, 8, 9)
	for i, want := range []float64{7, 8, 9} {
		if got := v.Comp(i); got != want {
			t.Errorf("Comp(%d) = %v, want %v", i, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Comp(3) should panic")
		}
	}()
	v.Comp(3)
}

func TestFromSlice(t *testing.T) {
	if got := FromSlice([]float64{1, 2, 3}); got != V(1, 2, 3) {
		t.Errorf("FromSlice = %v", got)
	}
	if got := FromSlice([]float64{1}); got != V(1, 0, 0) {
		t.Errorf("FromSlice short = %v", got)
	}
	if got := FromSlice(nil); got != V(0, 0, 0) {
		t.Errorf("FromSlice nil = %v", got)
	}
}

func TestMatIdentity(t *testing.T) {
	p := V(3, -2, 5)
	if got := Identity().MulPoint(p); got != p {
		t.Errorf("I*p = %v", got)
	}
	if got := Identity().MulDir(p); got != p {
		t.Errorf("I*d = %v", got)
	}
}

func TestMatMulAssociatesWithPoint(t *testing.T) {
	a := Translate(V(1, 2, 3))
	b := Scale(V(2, 2, 2))
	p := V(1, 1, 1)
	// (a*b)p == a(b p)
	lhs := a.MulM(b).MulPoint(p)
	rhs := a.MulPoint(b.MulPoint(p))
	if !lhs.NearEq(rhs, 1e-12) {
		t.Errorf("(ab)p=%v a(bp)=%v", lhs, rhs)
	}
	if !lhs.NearEq(V(3, 4, 5), 1e-12) {
		t.Errorf("T*S*p = %v, want (3,4,5)", lhs)
	}
}

func TestRotateAxisPreservesLength(t *testing.T) {
	f := func(ax, ay, az, angle, px, py, pz float64) bool {
		axis := V(ax, ay, az)
		if axis.Len() < 1e-9 || axis.Len() > 1e6 {
			return true
		}
		p := V(px, py, pz)
		if p.Len() > 1e6 {
			return true
		}
		q := RotateAxis(axis, angle).MulPoint(p)
		return almostEq(q.Len(), p.Len(), 1e-6*(1+p.Len()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRotateZQuarterTurn(t *testing.T) {
	m := RotateAxis(V(0, 0, 1), math.Pi/2)
	got := m.MulPoint(V(1, 0, 0))
	if !got.NearEq(V(0, 1, 0), 1e-12) {
		t.Errorf("Rz(90)·x = %v, want y", got)
	}
}

func TestLookAtMapsEyeToOrigin(t *testing.T) {
	eye := V(5, 6, 7)
	m := LookAt(eye, V(0, 0, 0), V(0, 1, 0))
	if got := m.MulPoint(eye); !got.NearEq(V(0, 0, 0), 1e-9) {
		t.Errorf("view(eye) = %v, want origin", got)
	}
	// Center should map onto the -Z axis.
	c := m.MulPoint(V(0, 0, 0))
	if !almostEq(c.X, 0, 1e-9) || !almostEq(c.Y, 0, 1e-9) || c.Z >= 0 {
		t.Errorf("view(center) = %v, want on -Z axis", c)
	}
}

func TestPerspectiveDepthRange(t *testing.T) {
	m := Perspective(Radians(60), 16.0/9, 1, 100)
	near := m.MulPoint(V(0, 0, -1))
	far := m.MulPoint(V(0, 0, -100))
	if !almostEq(near.Z, -1, 1e-9) {
		t.Errorf("near plane maps to z=%v, want -1", near.Z)
	}
	if !almostEq(far.Z, 1, 1e-9) {
		t.Errorf("far plane maps to z=%v, want 1", far.Z)
	}
}

func TestOrthoMapsBoxToNDC(t *testing.T) {
	m := Ortho(-2, 2, -1, 1, 0, 10)
	got := m.MulPoint(V(2, 1, -10))
	if !got.NearEq(V(1, 1, 1), 1e-12) {
		t.Errorf("ortho corner = %v", got)
	}
	got = m.MulPoint(V(-2, -1, 0))
	if !got.NearEq(V(-1, -1, -1), 1e-12) {
		t.Errorf("ortho corner = %v", got)
	}
}

func TestPlaneEval(t *testing.T) {
	pl := NewPlane(V(0, 0, 0), V(0, 0, 2)) // normal normalized internally
	if got := pl.Eval(V(0, 0, 3)); !almostEq(got, 3, 1e-12) {
		t.Errorf("Eval above = %v", got)
	}
	if got := pl.Eval(V(5, -2, -4)); !almostEq(got, -4, 1e-12) {
		t.Errorf("Eval below = %v", got)
	}
	if got := pl.Eval(V(1, 1, 0)); !almostEq(got, 0, 1e-12) {
		t.Errorf("Eval on plane = %v", got)
	}
}

func TestAABB(t *testing.T) {
	b := EmptyAABB()
	if !b.IsEmpty() {
		t.Fatal("new box should be empty")
	}
	b.Extend(V(1, 2, 3))
	b.Extend(V(-1, 5, 0))
	if b.IsEmpty() {
		t.Fatal("box with points should not be empty")
	}
	if b.Min != V(-1, 2, 0) || b.Max != V(1, 5, 3) {
		t.Errorf("bounds = %v..%v", b.Min, b.Max)
	}
	if got := b.Center(); !got.NearEq(V(0, 3.5, 1.5), 1e-15) {
		t.Errorf("center = %v", got)
	}
	if !b.Contains(V(0, 3, 1)) || b.Contains(V(2, 3, 1)) {
		t.Error("contains misbehaves")
	}
	exp := b.Expanded(1)
	if exp.Min != V(-2, 1, -1) || exp.Max != V(2, 6, 4) {
		t.Errorf("expanded = %v..%v", exp.Min, exp.Max)
	}
	var u AABB = EmptyAABB()
	u.Union(b)
	if u.Min != b.Min || u.Max != b.Max {
		t.Error("union with empty lhs should equal rhs")
	}
	u.Union(EmptyAABB())
	if u.Min != b.Min || u.Max != b.Max {
		t.Error("union with empty rhs should be a no-op")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

func TestDegreesRadiansRoundTrip(t *testing.T) {
	f := func(d float64) bool {
		if math.Abs(d) > 1e9 {
			return true
		}
		return almostEq(Radians(d)*180/math.Pi, d, 1e-9*(1+math.Abs(d)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
