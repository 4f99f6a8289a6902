package pointcloud

import (
	"container/heap"
	"math"

	"qarv/internal/geom"
)

// GridIndex is a uniform hash-grid spatial index over a cloud, supporting
// nearest-neighbour, k-nearest and radius queries. A hash grid beats a k-d
// tree for the near-uniform surface densities of voxelized body scans and
// keeps the implementation dependency-free. The index assumes the cloud
// is not modified after NewGridIndex.
type GridIndex struct {
	cloud    *Cloud
	cellSize float64
	origin   geom.Vec3
	cells    map[[3]int32][]int32
	// maxRing bounds ring expansion by the grid's occupied extent:
	// enough rings to cross the whole bounding box.
	maxRing int
}

// Neighbor is one k-nearest-neighbour result.
type Neighbor struct {
	Index int     // index into the cloud
	Dist2 float64 // squared distance to the query point
}

// NewGridIndex builds an index over cloud. cellSize ≤ 0 picks a heuristic
// size targeting a handful of points per cell.
func NewGridIndex(cloud *Cloud, cellSize float64) *GridIndex {
	g := &GridIndex{cloud: cloud}
	n := cloud.Len()
	b := cloud.Bounds()
	if cellSize <= 0 {
		if n == 0 || b.IsEmpty() {
			cellSize = 1
		} else {
			// Aim for ~2 points per cell for surface-like data:
			// cells ≈ n/2 over the bounding volume.
			vol := math.Max(b.Volume(), 1e-12)
			cellSize = math.Cbrt(vol / math.Max(float64(n)/2, 1))
			if cellSize <= 0 {
				cellSize = 1
			}
		}
	}
	g.cellSize = cellSize
	g.maxRing = 1
	if !b.IsEmpty() {
		g.origin = b.Min
		g.maxRing = int(b.LongestAxisLength()/cellSize) + 2
	}
	g.cells = make(map[[3]int32][]int32, n/2+1)
	for i, p := range cloud.Points {
		key := g.cellOf(p)
		g.cells[key] = append(g.cells[key], int32(i))
	}
	return g
}

// CellSize returns the edge length of the index's cells.
func (g *GridIndex) CellSize() float64 { return g.cellSize }

func (g *GridIndex) cellOf(p geom.Vec3) [3]int32 {
	return [3]int32{
		int32(math.Floor((p.X - g.origin.X) / g.cellSize)),
		int32(math.Floor((p.Y - g.origin.Y) / g.cellSize)),
		int32(math.Floor((p.Z - g.origin.Z) / g.cellSize)),
	}
}

// Nearest returns the index of the point closest to q and its squared
// distance. It returns (-1, -1) for an empty cloud.
func (g *GridIndex) Nearest(q geom.Vec3) (int, float64) {
	return g.NearestExcluding(q, -1)
}

// NearestExcluding is Nearest but skips the point at index exclude,
// which makes self-queries ("nearest other point") possible.
func (g *GridIndex) NearestExcluding(q geom.Vec3, exclude int) (int, float64) {
	if g.cloud.Len() == 0 || (g.cloud.Len() == 1 && exclude == 0) {
		return -1, -1
	}
	center := g.cellOf(q)
	best := -1
	bestD2 := math.Inf(1)
	// Expand rings of cells until the best candidate cannot be beaten by
	// any cell in the next ring.
	for ring := 0; ; ring++ {
		found := g.scanRing(q, center, ring, exclude, &best, &bestD2)
		if best >= 0 {
			// Points in ring r are at least (r−1)·cellSize away; once that
			// lower bound exceeds the best distance we can stop.
			lower := float64(ring) * g.cellSize
			if lower*lower > bestD2 {
				break
			}
		}
		if !found && ring > g.maxRing {
			break
		}
	}
	return best, bestD2
}

// scanRing visits all cells at Chebyshev distance ring from center and
// updates best/bestD2; it reports whether any occupied cell was seen.
func (g *GridIndex) scanRing(q geom.Vec3, center [3]int32, ring int, exclude int, best *int, bestD2 *float64) bool {
	foundCell := false
	visit := func(key [3]int32) {
		pts, ok := g.cells[key]
		if !ok {
			return
		}
		foundCell = true
		for _, i := range pts {
			if int(i) == exclude {
				continue
			}
			d2 := q.Dist2(g.cloud.Points[i])
			if d2 < *bestD2 {
				*bestD2 = d2
				*best = int(i)
			}
		}
	}
	if ring == 0 {
		visit(center)
		return foundCell
	}
	r := int32(ring)
	for dx := -r; dx <= r; dx++ {
		for dy := -r; dy <= r; dy++ {
			for dz := -r; dz <= r; dz++ {
				if maxAbs3(dx, dy, dz) != r {
					continue // interior cells were visited in earlier rings
				}
				visit([3]int32{center[0] + dx, center[1] + dy, center[2] + dz})
			}
		}
	}
	return foundCell
}

func maxAbs3(a, b, c int32) int32 {
	m := a
	if m < 0 {
		m = -m
	}
	if b < 0 {
		b = -b
	}
	if b > m {
		m = b
	}
	if c < 0 {
		c = -c
	}
	if c > m {
		m = c
	}
	return m
}

// neighborHeap is a max-heap on Dist2 so the worst of the current k best
// sits at the root and can be evicted cheaply.
type neighborHeap []Neighbor

func (h neighborHeap) Len() int            { return len(h) }
func (h neighborHeap) Less(i, j int) bool  { return h[i].Dist2 > h[j].Dist2 }
func (h neighborHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *neighborHeap) Push(x interface{}) { *h = append(*h, x.(Neighbor)) }
func (h *neighborHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// KNearest returns up to k nearest neighbours of q, sorted by increasing
// distance. The query point itself is included if it is in the cloud.
func (g *GridIndex) KNearest(q geom.Vec3, k int) []Neighbor {
	if k <= 0 || g.cloud.Len() == 0 {
		return nil
	}
	if k > g.cloud.Len() {
		k = g.cloud.Len()
	}
	h := make(neighborHeap, 0, k+1)
	center := g.cellOf(q)
	for ring := 0; ring <= g.maxRing; ring++ {
		g.scanRingKNN(q, center, ring, k, &h)
		if len(h) == k {
			lower := float64(ring) * g.cellSize
			if lower*lower > h[0].Dist2 {
				break
			}
		}
	}
	// Extract in increasing order.
	out := make([]Neighbor, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Neighbor)
	}
	return out
}

func (g *GridIndex) scanRingKNN(q geom.Vec3, center [3]int32, ring, k int, h *neighborHeap) {
	visit := func(key [3]int32) {
		for _, i := range g.cells[key] {
			d2 := q.Dist2(g.cloud.Points[i])
			if len(*h) < k {
				heap.Push(h, Neighbor{Index: int(i), Dist2: d2})
			} else if d2 < (*h)[0].Dist2 {
				heap.Pop(h)
				heap.Push(h, Neighbor{Index: int(i), Dist2: d2})
			}
		}
	}
	if ring == 0 {
		visit(center)
		return
	}
	r := int32(ring)
	for dx := -r; dx <= r; dx++ {
		for dy := -r; dy <= r; dy++ {
			for dz := -r; dz <= r; dz++ {
				if maxAbs3(dx, dy, dz) != r {
					continue
				}
				visit([3]int32{center[0] + dx, center[1] + dy, center[2] + dz})
			}
		}
	}
}

// Radius returns the indices of all points within radius of q (inclusive).
func (g *GridIndex) Radius(q geom.Vec3, radius float64) []int {
	if radius < 0 || g.cloud.Len() == 0 {
		return nil
	}
	r2 := radius * radius
	ringMax := int(radius/g.cellSize) + 1
	center := g.cellOf(q)
	var out []int
	for dx := -int32(ringMax); dx <= int32(ringMax); dx++ {
		for dy := -int32(ringMax); dy <= int32(ringMax); dy++ {
			for dz := -int32(ringMax); dz <= int32(ringMax); dz++ {
				key := [3]int32{center[0] + dx, center[1] + dy, center[2] + dz}
				for _, i := range g.cells[key] {
					if q.Dist2(g.cloud.Points[i]) <= r2 {
						out = append(out, int(i))
					}
				}
			}
		}
	}
	return out
}
