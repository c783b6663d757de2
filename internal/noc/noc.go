// Package noc models the on-chip network of Sec. III: a 6x5 mesh of tiles
// (Fig 4) where 28 tiles hold a core + L2 + LLC slice and two tiles hold
// memory controllers. Requests route X-then-Y; latency is a fixed
// injection/ejection cost plus a per-hop cost. Calibrated against the
// paper's real-system numbers: ~23 ns mean LLC hit latency from L1 (Fig 3),
// ~19 ns Direct LLC Latency, ~7.5 ns mean one-way tile-to-tile latency.
package noc

import (
	"fmt"

	"repro/internal/sim"
)

// NodeID identifies a mesh tile.
type NodeID int

// Mesh is the network geometry plus latency parameters.
type Mesh struct {
	cols, rows int
	hop        sim.Time // per-hop link+router latency
	base       sim.Time // fixed injection+ejection cost per traversal

	coreTiles []NodeID // tiles hosting core+L2+LLC slice, in core order
	mcTiles   []NodeID // tiles hosting memory controllers
	isMC      []bool
}

// New builds a cols x rows mesh with two MC tiles placed as in Fig 4: the
// left edge of row 1 and the right edge of row 3 (clamped for small
// meshes). All remaining tiles are core tiles.
func New(cols, rows int, hop, base sim.Time) *Mesh {
	if cols < 2 || rows < 2 {
		panic(fmt.Sprintf("noc: mesh must be at least 2x2, got %dx%d", cols, rows))
	}
	m := &Mesh{cols: cols, rows: rows, hop: hop, base: base, isMC: make([]bool, cols*rows)}
	mc1 := NodeID(min(1, rows-1)*cols + 0)
	mc2 := NodeID(min(3, rows-1)*cols + (cols - 1))
	if mc2 == mc1 {
		mc2 = NodeID(cols - 1)
	}
	m.mcTiles = []NodeID{mc1, mc2}
	m.isMC[mc1], m.isMC[mc2] = true, true
	for t := NodeID(0); t < NodeID(cols*rows); t++ {
		if !m.isMC[t] {
			m.coreTiles = append(m.coreTiles, t)
		}
	}
	return m
}

// Tiles reports total tile count.
func (m *Mesh) Tiles() int { return m.cols * m.rows }

// CoreTiles reports the number of core/L2/slice tiles.
func (m *Mesh) CoreTiles() int { return len(m.coreTiles) }

// MCs reports the number of memory-controller tiles.
func (m *Mesh) MCs() int { return len(m.mcTiles) }

// CoreTile maps a core index to its tile.
func (m *Mesh) CoreTile(core int) NodeID { return m.coreTiles[core%len(m.coreTiles)] }

// MCTile maps a memory-controller index to its tile.
func (m *Mesh) MCTile(mc int) NodeID { return m.mcTiles[mc%len(m.mcTiles)] }

// SliceOf maps a block address to the LLC slice tile that caches it, using
// a static hash over the block index like the mapping function of Fig 4.
func (m *Mesh) SliceOf(block uint64) NodeID {
	// Fibonacci hashing spreads consecutive blocks across slices while
	// staying deterministic.
	h := block * 0x9e3779b97f4a7c15
	return m.coreTiles[h%uint64(len(m.coreTiles))]
}

// SliceIndexOf reports the slice's index in core-tile order.
func (m *Mesh) SliceIndexOf(block uint64) int {
	h := block * 0x9e3779b97f4a7c15
	return int(h % uint64(len(m.coreTiles)))
}

// MCOf maps a block address to its home memory controller, interleaved at
// block granularity across the MC tiles.
func (m *Mesh) MCOf(block uint64) int {
	return int((block >> 1) % uint64(len(m.mcTiles)))
}

func (m *Mesh) xy(t NodeID) (x, y int) { return int(t) % m.cols, int(t) / m.cols }

// Hops reports the Manhattan distance between two tiles (XY routing).
func (m *Mesh) Hops(a, b NodeID) int {
	ax, ay := m.xy(a)
	bx, by := m.xy(b)
	return abs(ax-bx) + abs(ay-by)
}

// OneWay reports the latency of one message traversal a -> b.
func (m *Mesh) OneWay(a, b NodeID) sim.Time {
	return m.base + sim.Time(m.Hops(a, b))*m.hop
}

// RoundTrip reports a -> b -> a latency.
func (m *Mesh) RoundTrip(a, b NodeID) sim.Time { return 2 * m.OneWay(a, b) }

// MeanOneWay reports the average one-way latency from a given tile to all
// core tiles (used to calibrate against the paper's 7.5 ns figure).
func (m *Mesh) MeanOneWay(from NodeID) sim.Time {
	var sum sim.Time
	for _, t := range m.coreTiles {
		sum += m.OneWay(from, t)
	}
	return sum / sim.Time(len(m.coreTiles))
}

// RouteTrace renders the Fig 4 example: the tiles a request visits from a
// core's L2 to the home slice of a block and (on LLC miss) on to the MC.
func (m *Mesh) RouteTrace(core int, block uint64) []NodeID {
	src := m.CoreTile(core)
	slice := m.SliceOf(block)
	mc := m.MCTile(m.MCOf(block))
	route := []NodeID{src}
	route = append(route, m.xySteps(src, slice)...)
	route = append(route, m.xySteps(slice, mc)...)
	return route
}

func (m *Mesh) xySteps(a, b NodeID) []NodeID {
	var steps []NodeID
	ax, ay := m.xy(a)
	bx, by := m.xy(b)
	for ax != bx {
		if ax < bx {
			ax++
		} else {
			ax--
		}
		steps = append(steps, NodeID(ay*m.cols+ax))
	}
	for ay != by {
		if ay < by {
			ay++
		} else {
			ay--
		}
		steps = append(steps, NodeID(ay*m.cols+ax))
	}
	return steps
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
