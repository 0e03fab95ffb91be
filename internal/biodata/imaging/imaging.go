// Package imaging models the image data types of the paper's neuroscience
// demonstration study: brain images registered to shared coordinate
// systems, with annotated rectangular regions.
//
// The paper keeps spatial index count small by registration: "regions [of]
// all brain images of the same resolution are referenced with respect to
// the same brain coordinate system, and placed in a single R-tree". An
// Image therefore carries an affine registration (scale + translation per
// axis) into its CoordinateSystem, and region marks normalise through it
// before insertion into the per-system R-tree.
package imaging

import (
	"errors"
	"fmt"

	"graphitti/internal/rtree"
)

// Errors reported by imaging operations.
var (
	ErrDims     = errors.New("imaging: dimensionality mismatch")
	ErrBounds   = errors.New("imaging: region outside image bounds")
	ErrBadScale = errors.New("imaging: registration scale must be positive")
)

// CoordinateSystem is a shared spatial reference (e.g. a standard brain
// atlas space at a given resolution).
type CoordinateSystem struct {
	// Name identifies the system (e.g. "waxholm-25um").
	Name string
	// Dims is 2 or 3.
	Dims int
	// Bounds is the valid extent of the system.
	Bounds rtree.Rect
}

// NewCoordinateSystem validates and returns a coordinate system.
func NewCoordinateSystem(name string, bounds rtree.Rect) (*CoordinateSystem, error) {
	if !bounds.Valid() {
		return nil, fmt.Errorf("%w: bounds %v", ErrDims, bounds)
	}
	return &CoordinateSystem{Name: name, Dims: bounds.Dims, Bounds: bounds}, nil
}

// Registration maps image-local coordinates into a coordinate system with
// a per-axis scale and offset: system = local*Scale + Offset.
type Registration struct {
	Scale  [rtree.MaxDims]float64
	Offset [rtree.MaxDims]float64
}

// Identity returns the identity registration for the given dimensionality.
func Identity(dims int) Registration {
	var r Registration
	for d := 0; d < dims; d++ {
		r.Scale[d] = 1
	}
	return r
}

// Image is a registered image: metadata plus its mapping into a shared
// coordinate system. Pixel payloads are not modelled; annotation needs only
// the geometry.
type Image struct {
	// ID is the image accession (e.g. "mouse-brain-0042").
	ID string
	// System names the coordinate system the image registers into.
	System string
	// Local is the image extent in its own pixel/voxel coordinates.
	Local rtree.Rect
	// Reg maps local coordinates into the system.
	Reg Registration
	// Modality and Subject are free metadata (e.g. "confocal", "mouse-17").
	Modality string
	Subject  string
}

// NewImage validates the registration and returns an image.
func NewImage(id, system string, local rtree.Rect, reg Registration) (*Image, error) {
	if !local.Valid() {
		return nil, fmt.Errorf("%w: local extent %v", ErrDims, local)
	}
	for d := 0; d < local.Dims; d++ {
		if reg.Scale[d] <= 0 {
			return nil, fmt.Errorf("%w: axis %d scale %g", ErrBadScale, d, reg.Scale[d])
		}
	}
	return &Image{ID: id, System: system, Local: local, Reg: reg}, nil
}

// ToSystem maps a rectangle in image-local coordinates into the shared
// coordinate system.
func (im *Image) ToSystem(local rtree.Rect) (rtree.Rect, error) {
	if local.Dims != im.Local.Dims {
		return rtree.Rect{}, fmt.Errorf("%w: region dims %d, image dims %d",
			ErrDims, local.Dims, im.Local.Dims)
	}
	if !im.Local.Contains(local) {
		return rtree.Rect{}, fmt.Errorf("%w: %v outside %v", ErrBounds, local, im.Local)
	}
	out := rtree.Rect{Dims: local.Dims}
	for d := 0; d < local.Dims; d++ {
		out.Min[d] = local.Min[d]*im.Reg.Scale[d] + im.Reg.Offset[d]
		out.Max[d] = local.Max[d]*im.Reg.Scale[d] + im.Reg.Offset[d]
	}
	return out, nil
}

// Footprint returns the image's extent in system coordinates.
func (im *Image) Footprint() rtree.Rect {
	out, _ := im.ToSystem(im.Local)
	return out
}

// Region is an annotated rectangular region of an image, stored in both
// local and system coordinates.
type Region struct {
	ImageID string
	System  string
	Local   rtree.Rect
	Sys     rtree.Rect
}

// Region normalises a local rectangle into the shared system, producing a
// region mark ready for R-tree insertion.
func (im *Image) Region(local rtree.Rect) (*Region, error) {
	sys, err := im.ToSystem(local)
	if err != nil {
		return nil, err
	}
	return &Region{ImageID: im.ID, System: im.System, Local: local, Sys: sys}, nil
}
