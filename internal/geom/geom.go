// Package geom provides the 3D geometric primitives shared by every layer
// of the QuickNN reproduction: points, distance metrics, axis-aligned
// bounding boxes, and rigid transforms.
//
// All coordinates are float32, matching the 3×32-bit point format the
// QuickNN hardware streams over its 64-bit memory interface (a point is
// 12 bytes in external DRAM).
package geom

import (
	"fmt"
	"math"
)

// Dims is the dimensionality of the space. QuickNN targets 3D LiDAR point
// clouds; the k-d tree cycles through these dimensions when splitting.
const Dims = 3

// PointBytes is the external-memory footprint of one point: three float32
// coordinates. The architecture models use it to convert point counts to
// DRAM traffic.
const PointBytes = 3 * 4

// Axis identifies one of the three coordinate axes.
type Axis int

// The three axes, in the order the k-d tree cycles through them.
const (
	AxisX Axis = iota
	AxisY
	AxisZ
)

// Next returns the axis the k-d tree splits on after a.
func (a Axis) Next() Axis { return (a + 1) % Dims }

// String returns "x", "y" or "z".
func (a Axis) String() string {
	switch a {
	case AxisX:
		return "x"
	case AxisY:
		return "y"
	case AxisZ:
		return "z"
	}
	return fmt.Sprintf("axis(%d)", int(a))
}

// Point is a location in 3D space.
type Point struct {
	X, Y, Z float32
}

// Coord returns the coordinate of p along axis a.
func (p Point) Coord(a Axis) float32 {
	switch a {
	case AxisX:
		return p.X
	case AxisY:
		return p.Y
	default:
		return p.Z
	}
}

// WithCoord returns a copy of p with the coordinate along axis a replaced.
func (p Point) WithCoord(a Axis, v float32) Point {
	switch a {
	case AxisX:
		p.X = v
	case AxisY:
		p.Y = v
	default:
		p.Z = v
	}
	return p
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y, p.Z + q.Z} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y, p.Z - q.Z} }

// Scale returns p scaled by s.
func (p Point) Scale(s float32) Point { return Point{p.X * s, p.Y * s, p.Z * s} }

// Dot returns the dot product of p and q treated as vectors.
func (p Point) Dot(q Point) float64 {
	return float64(p.X)*float64(q.X) + float64(p.Y)*float64(q.Y) + float64(p.Z)*float64(q.Z)
}

// Norm returns the Euclidean length of p treated as a vector.
func (p Point) Norm() float64 { return math.Sqrt(p.Dot(p)) }

// Finite reports whether every coordinate of p is a finite number: not
// NaN and not ±Inf (both fail the magnitude bound).
func (p Point) Finite() bool {
	const m = math.MaxFloat32
	return math.Abs(float64(p.X)) <= m && math.Abs(float64(p.Y)) <= m && math.Abs(float64(p.Z)) <= m
}

// DistSq returns the squared Euclidean distance between p and q.
//
// The hardware FUs compare squared distances to avoid a square root; every
// search path in this repository does the same so results are bit-identical
// across the software reference and the architecture models.
func (p Point) DistSq(q Point) float64 {
	dx := float64(p.X) - float64(q.X)
	dy := float64(p.Y) - float64(q.Y)
	dz := float64(p.Z) - float64(q.Z)
	return dx*dx + dy*dy + dz*dz
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Sqrt(p.DistSq(q)) }

// String formats the point as (x, y, z).
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f, %.3f)", p.X, p.Y, p.Z) }

// AABB is an axis-aligned bounding box. Min must be component-wise ≤ Max
// for a non-empty box.
type AABB struct {
	Min, Max Point
}

// EmptyAABB returns a box that contains nothing; extending it with any
// point yields a box containing exactly that point.
func EmptyAABB() AABB {
	inf := float32(math.Inf(1))
	return AABB{Min: Point{inf, inf, inf}, Max: Point{-inf, -inf, -inf}}
}

// Empty reports whether the box contains no points.
func (b AABB) Empty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// Extend grows the box to include p.
func (b AABB) Extend(p Point) AABB {
	b.Min.X = min32(b.Min.X, p.X)
	b.Min.Y = min32(b.Min.Y, p.Y)
	b.Min.Z = min32(b.Min.Z, p.Z)
	b.Max.X = max32(b.Max.X, p.X)
	b.Max.Y = max32(b.Max.Y, p.Y)
	b.Max.Z = max32(b.Max.Z, p.Z)
	return b
}

// Union returns the smallest box containing both b and o.
func (b AABB) Union(o AABB) AABB {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	return AABB{
		Min: Point{min32(b.Min.X, o.Min.X), min32(b.Min.Y, o.Min.Y), min32(b.Min.Z, o.Min.Z)},
		Max: Point{max32(b.Max.X, o.Max.X), max32(b.Max.Y, o.Max.Y), max32(b.Max.Z, o.Max.Z)},
	}
}

// Contains reports whether p lies inside the box (inclusive).
func (b AABB) Contains(p Point) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Center returns the center of the box.
func (b AABB) Center() Point {
	return Point{(b.Min.X + b.Max.X) / 2, (b.Min.Y + b.Max.Y) / 2, (b.Min.Z + b.Max.Z) / 2}
}

// Size returns the extent of the box along each axis.
func (b AABB) Size() Point { return b.Max.Sub(b.Min) }

// DistSq returns the squared distance from p to the nearest point of the
// box; zero if p is inside. Exact k-d tree backtracking uses this to prune
// subtrees.
func (b AABB) DistSq(p Point) float64 {
	var d float64
	for a := AxisX; a < Dims; a++ {
		c := p.Coord(a)
		if lo := b.Min.Coord(a); c < lo {
			dd := float64(lo) - float64(c)
			d += dd * dd
		} else if hi := b.Max.Coord(a); c > hi {
			dd := float64(c) - float64(hi)
			d += dd * dd
		}
	}
	return d
}

// Bounds returns the bounding box of pts.
func Bounds(pts []Point) AABB {
	b := EmptyAABB()
	for _, p := range pts {
		b = b.Extend(p)
	}
	return b
}

// Centroid returns the arithmetic mean of pts. It panics if pts is empty.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		panic("geom: Centroid of empty slice")
	}
	var sx, sy, sz float64
	for _, p := range pts {
		sx += float64(p.X)
		sy += float64(p.Y)
		sz += float64(p.Z)
	}
	n := float64(len(pts))
	return Point{float32(sx / n), float32(sy / n), float32(sz / n)}
}

// Transform is a rigid transform: rotation about the Z axis (yaw) followed
// by a translation. This is the dominant frame-to-frame motion for a
// ground vehicle and is all the ICP example needs.
type Transform struct {
	Yaw         float64 // rotation about +Z, radians
	Translation Point
}

// Identity returns the identity transform.
func Identity() Transform { return Transform{} }

// Apply maps p through t.
func (t Transform) Apply(p Point) Point {
	s, c := math.Sincos(t.Yaw)
	x := float64(p.X)*c - float64(p.Y)*s
	y := float64(p.X)*s + float64(p.Y)*c
	return Point{
		X: float32(x) + t.Translation.X,
		Y: float32(y) + t.Translation.Y,
		Z: p.Z + t.Translation.Z,
	}
}

// ApplyAll maps every point in pts through t, returning a new slice.
func (t Transform) ApplyAll(pts []Point) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = t.Apply(p)
	}
	return out
}

// Compose returns the transform equivalent to applying t first, then u.
func (t Transform) Compose(u Transform) Transform {
	// u(t(p)) = R_u (R_t p + T_t) + T_u = R_{u+t} p + (R_u T_t + T_u)
	rt := Transform{Yaw: u.Yaw}.Apply(t.Translation)
	return Transform{Yaw: t.Yaw + u.Yaw, Translation: rt.Add(u.Translation)}
}

// Inverse returns the transform that undoes t.
func (t Transform) Inverse() Transform {
	inv := Transform{Yaw: -t.Yaw}
	return Transform{Yaw: -t.Yaw, Translation: inv.Apply(t.Translation).Scale(-1)}
}

func min32(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}
