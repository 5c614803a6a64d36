package render

import (
	"image"
	"math"

	"chatvis/internal/par"
)

// Framebuffer is a color + depth target. Depth is in NDC units ([-1,1],
// smaller is closer); pixels start at +Inf so anything drawn wins.
//
// The *Band primitive variants restrict writes to the pixel rows
// [y0, y1): the rasterizer partitions the framebuffer into disjoint
// fixed-height row bands, and each band replays the draw commands
// binned to it, so every pixel is written by exactly one goroutine in
// command order — the bytes are identical to a serial replay.
type Framebuffer struct {
	W, H  int
	Color []Color
	Depth []float64
}

// NewFramebuffer allocates a buffer cleared to the given background.
func NewFramebuffer(w, h int, bg Color) *Framebuffer {
	fb := &Framebuffer{}
	fb.reset(w, h, bg)
	return fb
}

// reset sizes the buffer to w x h, reusing its planes' capacity, and
// clears it to the background at infinite depth.
func (fb *Framebuffer) reset(w, h int, bg Color) {
	n := w * h
	if cap(fb.Color) < n || cap(fb.Depth) < n {
		fb.Color = make([]Color, n)
		fb.Depth = make([]float64, n)
	}
	fb.W, fb.H = w, h
	fb.Color, fb.Depth = fb.Color[:n], fb.Depth[:n]
	inf := math.Inf(1)
	for i := range fb.Color {
		fb.Color[i] = bg
		fb.Depth[i] = inf
	}
}

// pooledFrame is a framebuffer kept in framePool, for renders that
// return only the 8-bit image (Render, RenderContext): the float planes
// are 32 bytes a pixel, most of a frame's allocation.
type pooledFrame struct{ fb Framebuffer }

// Reset implements par.Resetter: an empty frame that keeps its planes'
// capacity for the next reset.
func (p *pooledFrame) Reset() {
	p.fb.W, p.fb.H = 0, 0
	p.fb.Color, p.fb.Depth = p.fb.Color[:0], p.fb.Depth[:0]
}

var framePool = par.NewArena(func() *pooledFrame { return &pooledFrame{} })

// maxPooledPixels bounds the frame framePool keeps. The planes of a
// larger frame (up to the 3840x2160 render limit, 265 MB) go to the
// collector instead of staying pinned for the next render.
const maxPooledPixels = 1920 * 1080

// release returns the frame to framePool, without its planes when they
// are larger than maxPooledPixels.
func (p *pooledFrame) release() {
	if cap(p.fb.Depth) > maxPooledPixels {
		p.fb = Framebuffer{}
	}
	framePool.Put(p)
}

// At returns the color at (x, y).
func (fb *Framebuffer) At(x, y int) Color { return fb.Color[y*fb.W+x] }

// set writes a depth-tested pixel.
func (fb *Framebuffer) set(x, y int, z float64, c Color) {
	if x < 0 || y < 0 || x >= fb.W || y >= fb.H {
		return
	}
	i := y*fb.W + x
	if z <= fb.Depth[i] {
		fb.Depth[i] = z
		fb.Color[i] = c
	}
}

// vert is a projected vertex ready for rasterization: screen x/y, NDC z,
// and a shaded color.
type vert struct {
	x, y, z float64
	c       Color
}

// triangleBand rasterizes a triangle command restricted to rows
// [y0, y1): opaque triangles write colour and depth, translucent ones
// blend their colour by the command's opacity without writing depth.
// The edge deltas are per triangle and the edge terms in py per row; each
// pixel's barycentric weights, depth and colour come from the same
// float64 operations, in the same order, as evaluating the three edge
// functions from scratch.
func (fb *Framebuffer) triangleBand(c *rasterCmd, y0, y1 int) {
	v0, v1, v2 := &c.v0, &c.v1, &c.v2
	minY, maxY := c.yMin, c.yMax
	if minY < y0 {
		minY = y0
	}
	if maxY >= y1 {
		maxY = y1 - 1
	}
	blend, alpha, inv := c.kind == cmdBlendTriangle, c.param, c.inv
	// w0 is edge(v1, v2), w1 edge(v2, v0), w2 edge(v0, v1).
	e0x, e0y := v2.x-v1.x, v2.y-v1.y
	e1x, e1y := v0.x-v2.x, v0.y-v2.y
	e2x, e2y := v1.x-v0.x, v1.y-v0.y
	for y := minY; y <= maxY; y++ {
		py := float64(y) + 0.5
		r0, r1, r2 := e0x*(py-v1.y), e1x*(py-v2.y), e2x*(py-v0.y)
		row := y * fb.W
		for x := c.xMin; x <= c.xMax; x++ {
			px := float64(x) + 0.5
			w0 := (r0 - e0y*(px-v1.x)) * inv
			if w0 < 0 {
				continue
			}
			w1 := (r1 - e1y*(px-v2.x)) * inv
			if w1 < 0 {
				continue
			}
			w2 := (r2 - e2y*(px-v0.x)) * inv
			if w2 < 0 {
				continue
			}
			z := w0*v0.z + w1*v1.z + w2*v2.z
			i := row + x
			if !(z <= fb.Depth[i]) {
				continue
			}
			col := Color{
				R: w0*v0.c.R + w1*v1.c.R + w2*v2.c.R,
				G: w0*v0.c.G + w1*v1.c.G + w2*v2.c.G,
				B: w0*v0.c.B + w1*v1.c.B + w2*v2.c.B,
			}
			if blend {
				fb.Color[i] = fb.Color[i].Lerp(col, alpha)
			} else {
				fb.Depth[i] = z
				fb.Color[i] = col
			}
		}
	}
}

// edge evaluates the signed edge function of (a,b) at (px,py).
func edge(a, b vert, px, py float64) float64 {
	return (b.x-a.x)*(py-a.y) - (b.y-a.y)*(px-a.x)
}

// Line draws a depth-tested line of the given width (pixels) with color
// interpolation. A small depth bias pulls lines toward the viewer so
// wireframe edges win over their own surface.
func (fb *Framebuffer) Line(v0, v1 vert, width float64) {
	fb.lineBand(v0, v1, width, 0, fb.H)
}

// lineBand draws the line restricted to rows [y0, y1).
func (fb *Framebuffer) lineBand(v0, v1 vert, width float64, y0, y1 int) {
	const depthBias = 1e-4
	dx, dy := v1.x-v0.x, v1.y-v0.y
	steps := int(math.Max(math.Abs(dx), math.Abs(dy))) + 1
	r := int(width / 2)
	for s := 0; s <= steps; s++ {
		t := float64(s) / float64(steps)
		x := v0.x + t*dx
		y := v0.y + t*dy
		z := v0.z + t*(v1.z-v0.z) - depthBias
		c := v0.c.Lerp(v1.c, t)
		if r <= 0 {
			if py := int(y); py >= y0 && py < y1 {
				fb.set(int(x), py, z, c)
			}
			continue
		}
		for oy := -r; oy <= r; oy++ {
			py := int(y) + oy
			if py < y0 || py >= y1 {
				continue
			}
			for ox := -r; ox <= r; ox++ {
				if ox*ox+oy*oy <= r*r {
					fb.set(int(x)+ox, py, z, c)
				}
			}
		}
	}
}

// Point draws a depth-tested square point of the given size (pixels).
func (fb *Framebuffer) Point(v vert, size float64) {
	fb.pointBand(v, size, 0, fb.H)
}

// pointBand draws the point restricted to rows [y0, y1).
func (fb *Framebuffer) pointBand(v vert, size float64, y0, y1 int) {
	r := int(size / 2)
	const depthBias = 1e-4
	for oy := -r; oy <= r; oy++ {
		py := int(v.y) + oy
		if py < y0 || py >= y1 {
			continue
		}
		for ox := -r; ox <= r; ox++ {
			fb.set(int(v.x)+ox, py, v.z-depthBias, v.c)
		}
	}
}

// Image converts the framebuffer to an 8-bit RGBA image.
func (fb *Framebuffer) Image() *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, fb.W, fb.H))
	pix := img.Pix // Stride is 4*W: the rows are contiguous
	for i, c := range fb.Color {
		p := pix[4*i : 4*i+4 : 4*i+4]
		p[0], p[1], p[2], p[3] = to8(c.R), to8(c.G), to8(c.B), 255
	}
	return img
}

func to8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return uint8(v*255 + 0.5)
}

// min3 and max3 see no NaN: appendTriCmd drops a triangle with a NaN
// screen coordinate before taking its bounding box. On numbers they
// agree with math.Min and math.Max up to the sign of a zero, which
// flooring to an int erases.
func min3(a, b, c float64) float64 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func max3(a, b, c float64) float64 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}
