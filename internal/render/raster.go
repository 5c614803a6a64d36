package render

import (
	"image"
	"math"
)

// Framebuffer is a color + depth target. Depth is in NDC units ([-1,1],
// smaller is closer); pixels start at +Inf so anything drawn wins.
//
// The *Band primitive variants restrict writes to the pixel rows
// [y0, y1): the tile-parallel rasterizer partitions the framebuffer
// into disjoint row bands and replays the frame's draw commands per
// band, so every pixel is written by exactly one goroutine in command
// order — the bytes are identical to a serial replay.
type Framebuffer struct {
	W, H  int
	Color []Color
	Depth []float64
}

// NewFramebuffer allocates a buffer cleared to the given background.
func NewFramebuffer(w, h int, bg Color) *Framebuffer {
	fb := &Framebuffer{
		W: w, H: h,
		Color: make([]Color, w*h),
		Depth: make([]float64, w*h),
	}
	for i := range fb.Color {
		fb.Color[i] = bg
		fb.Depth[i] = math.Inf(1)
	}
	return fb
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

// blend writes a depth-tested alpha-blended pixel without updating depth
// (used for translucent fragments).
func (fb *Framebuffer) blend(x, y int, z float64, c Color, alpha float64) {
	if x < 0 || y < 0 || x >= fb.W || y >= fb.H {
		return
	}
	i := y*fb.W + x
	if z <= fb.Depth[i] {
		fb.Color[i] = fb.Color[i].Lerp(c, alpha)
	}
}

// vert is a projected vertex ready for rasterization: screen x/y, NDC z,
// and a shaded color.
type vert struct {
	x, y, z float64
	c       Color
}

// triangleBand rasterizes the triangle restricted to rows [y0, y1).
func (fb *Framebuffer) triangleBand(v0, v1, v2 vert, y0, y1 int) {
	minX := int(math.Floor(min3(v0.x, v1.x, v2.x)))
	maxX := int(math.Ceil(max3(v0.x, v1.x, v2.x)))
	minY := int(math.Floor(min3(v0.y, v1.y, v2.y)))
	maxY := int(math.Ceil(max3(v0.y, v1.y, v2.y)))
	if minX < 0 {
		minX = 0
	}
	if minY < y0 {
		minY = y0
	}
	if maxX >= fb.W {
		maxX = fb.W - 1
	}
	if maxY >= y1 {
		maxY = y1 - 1
	}
	area := edge(v0, v1, v2.x, v2.y)
	if area == 0 {
		return
	}
	inv := 1 / area
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			px, py := float64(x)+0.5, float64(y)+0.5
			w0 := edge(v1, v2, px, py) * inv
			w1 := edge(v2, v0, px, py) * inv
			w2 := edge(v0, v1, px, py) * inv
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			z := w0*v0.z + w1*v1.z + w2*v2.z
			c := Color{
				R: w0*v0.c.R + w1*v1.c.R + w2*v2.c.R,
				G: w0*v0.c.G + w1*v1.c.G + w2*v2.c.G,
				B: w0*v0.c.B + w1*v1.c.B + w2*v2.c.B,
			}
			fb.set(x, y, z, c)
		}
	}
}

// blendTriangleBand is the translucent variant of triangleBand: blended
// color at full-coverage pixels without writing depth.
func (fb *Framebuffer) blendTriangleBand(v0, v1, v2 vert, alpha float64, y0, y1 int) {
	minX := int(math.Floor(min3(v0.x, v1.x, v2.x)))
	maxX := int(math.Ceil(max3(v0.x, v1.x, v2.x)))
	minY := int(math.Floor(min3(v0.y, v1.y, v2.y)))
	maxY := int(math.Ceil(max3(v0.y, v1.y, v2.y)))
	if minX < 0 {
		minX = 0
	}
	if minY < y0 {
		minY = y0
	}
	if maxX >= fb.W {
		maxX = fb.W - 1
	}
	if maxY >= y1 {
		maxY = y1 - 1
	}
	area := edge(v0, v1, v2.x, v2.y)
	if area == 0 {
		return
	}
	inv := 1 / area
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			px, py := float64(x)+0.5, float64(y)+0.5
			w0 := edge(v1, v2, px, py) * inv
			w1 := edge(v2, v0, px, py) * inv
			w2 := edge(v0, v1, px, py) * inv
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			z := w0*v0.z + w1*v1.z + w2*v2.z
			c := Color{
				R: w0*v0.c.R + w1*v1.c.R + w2*v2.c.R,
				G: w0*v0.c.G + w1*v1.c.G + w2*v2.c.G,
				B: w0*v0.c.B + w1*v1.c.B + w2*v2.c.B,
			}
			fb.blend(x, y, z, c, alpha)
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

func min3(a, b, c float64) float64 { return math.Min(a, math.Min(b, c)) }
func max3(a, b, c float64) float64 { return math.Max(a, math.Max(b, c)) }
