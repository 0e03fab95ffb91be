// Package rtree implements the 2-D/3-D sub-structure index used by
// Graphitti for image data.
//
// The paper stores annotated image regions in "a collection of R-tree for
// 2D and 3D data", with all regions of images registered to the same
// coordinate system sharing a single tree ("regions [of] all brain images
// of the same resolution are referenced with respect to the same brain
// coordinate system, and placed in a single R-tree"). This package provides
// that tree (Guttman R-tree with quadratic split, plus an STR bulk loader)
// and the SUB_X operators on rectangular sub-structures: ifOverlap and
// intersect.
package rtree

import (
	"errors"
	"fmt"
)

// MaxDims is the largest supported dimensionality. The paper needs 2-D
// (image planes) and 3-D (volumetric brain coordinates).
const MaxDims = 3

// ErrInvalid is returned for degenerate or dimension-mismatched rectangles.
var ErrInvalid = errors.New("rtree: invalid rectangle")

// ErrDuplicateID is returned when inserting an entry whose (rectangle, ID)
// key is already present in the tree.
var ErrDuplicateID = errors.New("rtree: duplicate entry ID")

// Rect is an axis-aligned box in 2 or 3 dimensions. Coordinates are
// half-open per axis: a point p is inside when Min[d] <= p[d] < Max[d].
// Only the first Dims axes are meaningful.
type Rect struct {
	Min, Max [MaxDims]float64
	Dims     int
}

// Rect2D returns a 2-D rectangle.
func Rect2D(x0, y0, x1, y1 float64) Rect {
	return Rect{Min: [MaxDims]float64{x0, y0}, Max: [MaxDims]float64{x1, y1}, Dims: 2}
}

// Rect3D returns a 3-D box.
func Rect3D(x0, y0, z0, x1, y1, z1 float64) Rect {
	return Rect{Min: [MaxDims]float64{x0, y0, z0}, Max: [MaxDims]float64{x1, y1, z1}, Dims: 3}
}

// Valid reports whether the rectangle has a supported dimensionality and a
// positive extent on every axis.
func (r Rect) Valid() bool {
	if r.Dims < 2 || r.Dims > MaxDims {
		return false
	}
	for d := 0; d < r.Dims; d++ {
		if r.Max[d] <= r.Min[d] {
			return false
		}
	}
	return true
}

// Overlaps implements the paper's ifOverlap operator for rectangular
// sub-structures. Rectangles of different dimensionality never overlap.
func (r Rect) Overlaps(o Rect) bool {
	if r.Dims != o.Dims {
		return false
	}
	for d := 0; d < r.Dims; d++ {
		if r.Min[d] >= o.Max[d] || o.Min[d] >= r.Max[d] {
			return false
		}
	}
	return true
}

// Intersect implements the paper's intersect operator for convex
// sub-structures: it returns the common box and whether it is non-empty.
func (r Rect) Intersect(o Rect) (Rect, bool) {
	if r.Dims != o.Dims {
		return Rect{}, false
	}
	out := Rect{Dims: r.Dims}
	for d := 0; d < r.Dims; d++ {
		out.Min[d] = maxf(r.Min[d], o.Min[d])
		out.Max[d] = minf(r.Max[d], o.Max[d])
		if out.Max[d] <= out.Min[d] {
			return Rect{}, false
		}
	}
	return out, true
}

// Union returns the minimum bounding box of the two rectangles, which must
// share a dimensionality.
func (r Rect) Union(o Rect) Rect {
	out := Rect{Dims: r.Dims}
	for d := 0; d < r.Dims; d++ {
		out.Min[d] = minf(r.Min[d], o.Min[d])
		out.Max[d] = maxf(r.Max[d], o.Max[d])
	}
	return out
}

// Contains reports whether o lies entirely within r.
func (r Rect) Contains(o Rect) bool {
	if r.Dims != o.Dims {
		return false
	}
	for d := 0; d < r.Dims; d++ {
		if o.Min[d] < r.Min[d] || o.Max[d] > r.Max[d] {
			return false
		}
	}
	return true
}

// equal reports whether the two rectangles cover the same box.
func (r Rect) equal(o Rect) bool { return r.Contains(o) && o.Contains(r) }

// Volume returns the area (2-D) or volume (3-D) of the rectangle.
func (r Rect) Volume() float64 {
	v := 1.0
	for d := 0; d < r.Dims; d++ {
		v *= r.Max[d] - r.Min[d]
	}
	return v
}

// enlargement returns how much r's volume grows if extended to include o.
func (r Rect) enlargement(o Rect) float64 {
	return r.Union(o).Volume() - r.Volume()
}

// Center returns the midpoint of the rectangle along axis d.
func (r Rect) Center(d int) float64 { return (r.Min[d] + r.Max[d]) / 2 }

// String renders the rectangle for diagnostics.
func (r Rect) String() string {
	switch r.Dims {
	case 2:
		return fmt.Sprintf("[%g,%g;%g,%g)", r.Min[0], r.Min[1], r.Max[0], r.Max[1])
	case 3:
		return fmt.Sprintf("[%g,%g,%g;%g,%g,%g)", r.Min[0], r.Min[1], r.Min[2], r.Max[0], r.Max[1], r.Max[2])
	default:
		return fmt.Sprintf("invalid-rect(dims=%d)", r.Dims)
	}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
