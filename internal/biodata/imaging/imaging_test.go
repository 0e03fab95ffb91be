package imaging

import (
	"errors"
	"testing"

	"graphitti/internal/rtree"
)

func TestNewCoordinateSystem(t *testing.T) {
	cs, err := NewCoordinateSystem("waxholm", rtree.Rect3D(0, 0, 0, 1000, 800, 600))
	if err != nil || cs.Dims != 3 {
		t.Fatalf("cs = %+v, %v", cs, err)
	}
	if _, err := NewCoordinateSystem("bad", rtree.Rect{Dims: 2}); err == nil {
		t.Fatal("degenerate bounds accepted")
	}
}

func TestNewImageValidation(t *testing.T) {
	local := rtree.Rect2D(0, 0, 512, 512)
	if _, err := NewImage("i", "sys", local, Identity(2)); err != nil {
		t.Fatal(err)
	}
	bad := Identity(2)
	bad.Scale[0] = 0
	if _, err := NewImage("i", "sys", local, bad); !errors.Is(err, ErrBadScale) {
		t.Fatalf("zero scale: err = %v", err)
	}
	if _, err := NewImage("i", "sys", rtree.Rect{Dims: 2}, Identity(2)); !errors.Is(err, ErrDims) {
		t.Fatalf("degenerate local: err = %v", err)
	}
}

func TestToFromSystem(t *testing.T) {
	// 512x512 image mapped at 0.5 units/pixel, offset (100, 200).
	reg := Registration{
		Scale:  [rtree.MaxDims]float64{0.5, 0.5},
		Offset: [rtree.MaxDims]float64{100, 200},
	}
	im, err := NewImage("img1", "atlas", rtree.Rect2D(0, 0, 512, 512), reg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := im.ToSystem(rtree.Rect2D(0, 0, 512, 512))
	if err != nil {
		t.Fatal(err)
	}
	if sys != rtree.Rect2D(100, 200, 356, 456) {
		t.Fatalf("ToSystem = %v", sys)
	}
	if im.Footprint() != sys {
		t.Fatal("Footprint disagrees with ToSystem of full extent")
	}
	// Out-of-bounds local region.
	if _, err := im.ToSystem(rtree.Rect2D(500, 500, 600, 600)); !errors.Is(err, ErrBounds) {
		t.Fatalf("out of bounds: err = %v", err)
	}
	// Dim mismatch.
	if _, err := im.ToSystem(rtree.Rect3D(0, 0, 0, 1, 1, 1)); !errors.Is(err, ErrDims) {
		t.Fatalf("dims: err = %v", err)
	}
}

func TestRegions(t *testing.T) {
	regA := Registration{
		Scale:  [rtree.MaxDims]float64{1, 1},
		Offset: [rtree.MaxDims]float64{0, 0},
	}
	regB := Registration{
		Scale:  [rtree.MaxDims]float64{1, 1},
		Offset: [rtree.MaxDims]float64{50, 0},
	}
	imA, _ := NewImage("A", "atlas", rtree.Rect2D(0, 0, 100, 100), regA)
	imB, _ := NewImage("B", "atlas", rtree.Rect2D(0, 0, 100, 100), regB)
	imC, _ := NewImage("C", "other-atlas", rtree.Rect2D(0, 0, 100, 100), regA)

	// A's region [40,60) x overlaps B's [0,20)+50 = [50,70).
	ra, err := imA.Region(rtree.Rect2D(40, 0, 60, 10))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := imB.Region(rtree.Rect2D(0, 0, 20, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !ra.Sys.Overlaps(rb.Sys) {
		t.Fatal("registered regions should overlap in system space")
	}
	rc, _ := imC.Region(rtree.Rect2D(40, 0, 60, 10))
	if rc.System != "other-atlas" || rc.ImageID != "C" {
		t.Fatalf("region of C = %+v", rc)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for d := 0; d < 3; d++ {
		if id.Scale[d] != 1 || id.Offset[d] != 0 {
			t.Fatalf("Identity wrong at axis %d", d)
		}
	}
}
