package noc

import (
	"testing"

	"repro/internal/sim"
)

func paperMesh() *Mesh { return New(6, 5, sim.NS(1.0), sim.NS(3.0)) }

func TestGeometry(t *testing.T) {
	m := paperMesh()
	if m.Tiles() != 30 {
		t.Fatalf("tiles = %d, want 30", m.Tiles())
	}
	if m.CoreTiles() != 28 {
		t.Fatalf("core tiles = %d, want 28 (Fig 4)", m.CoreTiles())
	}
	if m.MCs() != 2 {
		t.Fatalf("MCs = %d, want 2", m.MCs())
	}
}

func TestMCTilesAreNotCoreTiles(t *testing.T) {
	m := paperMesh()
	mcs := map[NodeID]bool{m.MCTile(0): true, m.MCTile(1): true}
	if len(mcs) != 2 {
		t.Fatal("both MCs map to one tile")
	}
	for c := 0; c < m.CoreTiles(); c++ {
		if mcs[m.CoreTile(c)] {
			t.Fatalf("core %d shares a tile with an MC", c)
		}
	}
}

func TestLatencySymmetricAndTriangular(t *testing.T) {
	m := paperMesh()
	a, b, c := m.CoreTile(0), m.CoreTile(13), m.CoreTile(27)
	if m.OneWay(a, b) != m.OneWay(b, a) {
		t.Fatal("one-way latency not symmetric")
	}
	if m.OneWay(a, a) != sim.NS(3.0) {
		t.Fatalf("self latency = %v, want base cost", m.OneWay(a, a))
	}
	if m.Hops(a, c) > m.Hops(a, b)+m.Hops(b, c) {
		t.Fatal("hop counts violate the triangle inequality")
	}
	if m.RoundTrip(a, b) != 2*m.OneWay(a, b) {
		t.Fatal("round trip != 2x one way")
	}
}

// TestMeanOneWayNearPaper: the paper measures ~7.5 ns mean one-way tile
// latency; the calibrated mesh should be within a nanosecond.
func TestMeanOneWayNearPaper(t *testing.T) {
	m := paperMesh()
	mean := m.MeanOneWay(m.CoreTile(0)).Nanoseconds()
	if mean < 5.5 || mean > 8.5 {
		t.Fatalf("mean one-way = %.2f ns, want ~6.5-7.5", mean)
	}
}

// TestLLCHitLatencyNearPaper: L1+L2 (6 ns) + RTT + tag+data (4 ns) should
// average ~23 ns (Fig 3).
func TestLLCHitLatencyNearPaper(t *testing.T) {
	m := paperMesh()
	var sum float64
	n := 0
	for c := 0; c < m.CoreTiles(); c++ {
		for s := 0; s < m.CoreTiles(); s++ {
			sum += (sim.NS(10) + m.RoundTrip(m.CoreTile(c), m.CoreTile(s))).Nanoseconds()
			n++
		}
	}
	mean := sum / float64(n)
	if mean < 21 || mean > 25 {
		t.Fatalf("mean LLC hit latency = %.2f ns, want ~23", mean)
	}
}

func TestSliceMappingDeterministicAndSpread(t *testing.T) {
	m := paperMesh()
	seen := map[NodeID]int{}
	for b := uint64(0); b < 10000; b++ {
		s1, s2 := m.SliceOf(b), m.SliceOf(b)
		if s1 != s2 {
			t.Fatal("slice mapping not deterministic")
		}
		seen[s1]++
	}
	if len(seen) != m.CoreTiles() {
		t.Fatalf("blocks map to %d slices, want %d", len(seen), m.CoreTiles())
	}
	for s, n := range seen {
		if n < 10000/m.CoreTiles()/3 {
			t.Fatalf("slice %d badly underloaded: %d", int(s), n)
		}
	}
}

func TestMCOfInterleaves(t *testing.T) {
	m := paperMesh()
	counts := [2]int{}
	for b := uint64(0); b < 1000; b++ {
		mc := m.MCOf(b)
		if mc != 0 && mc != 1 {
			t.Fatalf("MCOf = %d", mc)
		}
		counts[mc]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("MC interleave broken: %v", counts)
	}
}

func TestRouteTraceContiguous(t *testing.T) {
	m := paperMesh()
	route := m.RouteTrace(0, 0xbeef)
	if len(route) < 2 {
		t.Fatal("route too short")
	}
	for i := 1; i < len(route); i++ {
		if m.Hops(route[i-1], route[i]) > 1 {
			t.Fatalf("route hop %d -> %d is not adjacent", int(route[i-1]), int(route[i]))
		}
	}
	if route[len(route)-1] != m.MCTile(m.MCOf(0xbeef)) {
		t.Fatal("route does not end at the home MC")
	}
}

func TestTooSmallMeshPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("1x1 mesh did not panic")
		}
	}()
	New(1, 1, 1, 1)
}

// Non-square geometries (cols != rows in both orientations, including the
// degenerate two-row and two-column shapes). The routing and placement
// invariants below must hold regardless of aspect ratio — every modeled
// message delay derives from these distances, so an asymmetry or an
// off-mesh route on a skinny mesh would silently skew the timing.
var nonSquareMeshes = []struct{ cols, rows int }{
	{8, 3}, {3, 8}, {7, 2}, {2, 7}, {9, 4},
}

func TestNonSquareHopsAndLatencySymmetric(t *testing.T) {
	for _, g := range nonSquareMeshes {
		m := New(g.cols, g.rows, sim.NS(1.0), sim.NS(3.0))
		n := NodeID(m.Tiles())
		for a := NodeID(0); a < n; a++ {
			for b := a; b < n; b++ {
				if m.Hops(a, b) != m.Hops(b, a) {
					t.Fatalf("%dx%d: Hops(%d,%d) != Hops(%d,%d)", g.cols, g.rows, a, b, b, a)
				}
				if m.OneWay(a, b) != m.OneWay(b, a) {
					t.Fatalf("%dx%d: OneWay not symmetric for (%d,%d)", g.cols, g.rows, a, b)
				}
				want := sim.NS(3.0) + sim.Time(m.Hops(a, b))*sim.NS(1.0)
				if m.OneWay(a, b) != want {
					t.Fatalf("%dx%d: OneWay(%d,%d) = %v, want base+hops = %v",
						g.cols, g.rows, a, b, m.OneWay(a, b), want)
				}
			}
			// Hops is the Manhattan metric, so the farthest tile is a
			// corner: no distance may exceed the mesh diameter.
			for b := NodeID(0); b < n; b++ {
				if d := m.Hops(a, b); d > (g.cols-1)+(g.rows-1) {
					t.Fatalf("%dx%d: Hops(%d,%d) = %d exceeds diameter", g.cols, g.rows, a, b, d)
				}
			}
		}
	}
}

// TestNonSquareXYRoutesValid walks every pair's XY route step list: each
// step moves exactly one hop, stays on the mesh, moves X before Y, and the
// step count equals the Manhattan distance.
func TestNonSquareXYRoutesValid(t *testing.T) {
	for _, g := range nonSquareMeshes {
		m := New(g.cols, g.rows, sim.NS(1.0), sim.NS(3.0))
		n := NodeID(m.Tiles())
		for a := NodeID(0); a < n; a++ {
			for b := NodeID(0); b < n; b++ {
				steps := m.xySteps(a, b)
				if len(steps) != m.Hops(a, b) {
					t.Fatalf("%dx%d: route %d->%d has %d steps, want %d hops",
						g.cols, g.rows, a, b, len(steps), m.Hops(a, b))
				}
				cur := a
				yPhase := false
				for _, s := range steps {
					if s < 0 || int(s) >= m.Tiles() {
						t.Fatalf("%dx%d: route %d->%d leaves the mesh at %d", g.cols, g.rows, a, b, s)
					}
					if m.Hops(cur, s) != 1 {
						t.Fatalf("%dx%d: route %d->%d jumps %d hops at %d",
							g.cols, g.rows, a, b, m.Hops(cur, s), s)
					}
					_, cy := m.xy(cur)
					_, sy := m.xy(s)
					if cy != sy {
						yPhase = true
					} else if yPhase {
						t.Fatalf("%dx%d: route %d->%d moves X after Y at %d (not XY routing)",
							g.cols, g.rows, a, b, s)
					}
					cur = s
				}
				if cur != b {
					t.Fatalf("%dx%d: route %d->%d ends at %d", g.cols, g.rows, a, b, cur)
				}
			}
		}
	}
}

func TestNonSquareMCPlacement(t *testing.T) {
	for _, g := range nonSquareMeshes {
		m := New(g.cols, g.rows, sim.NS(1.0), sim.NS(3.0))
		if m.MCs() != 2 {
			t.Fatalf("%dx%d: MCs = %d, want 2", g.cols, g.rows, m.MCs())
		}
		mc0, mc1 := m.MCTile(0), m.MCTile(1)
		if mc0 == mc1 {
			t.Fatalf("%dx%d: both MCs on tile %d", g.cols, g.rows, mc0)
		}
		for i, mc := range []NodeID{mc0, mc1} {
			if mc < 0 || int(mc) >= m.Tiles() {
				t.Fatalf("%dx%d: MC %d off-mesh at %d", g.cols, g.rows, i, mc)
			}
		}
		// Fig 4 rule, clamped for short meshes: MC0 on the left edge, MC1
		// on the right edge.
		if x, _ := m.xy(mc0); x != 0 {
			t.Fatalf("%dx%d: MC0 at column %d, want left edge", g.cols, g.rows, x)
		}
		if x, _ := m.xy(mc1); x != g.cols-1 {
			t.Fatalf("%dx%d: MC1 at column %d, want right edge", g.cols, g.rows, x)
		}
		if m.CoreTiles() != g.cols*g.rows-2 {
			t.Fatalf("%dx%d: core tiles = %d, want %d", g.cols, g.rows, m.CoreTiles(), g.cols*g.rows-2)
		}
		for c := 0; c < m.CoreTiles(); c++ {
			tile := m.CoreTile(c)
			if tile == mc0 || tile == mc1 {
				t.Fatalf("%dx%d: core %d shares tile %d with an MC", g.cols, g.rows, c, tile)
			}
		}
		// Slice hashing and MC interleave stay in range on the skinny
		// geometry.
		for block := uint64(0); block < 1000; block++ {
			if j := m.SliceIndexOf(block); j < 0 || j >= m.CoreTiles() {
				t.Fatalf("%dx%d: slice index %d out of range", g.cols, g.rows, j)
			}
			if mc := m.MCOf(block); mc != 0 && mc != 1 {
				t.Fatalf("%dx%d: MCOf = %d", g.cols, g.rows, mc)
			}
		}
	}
}
