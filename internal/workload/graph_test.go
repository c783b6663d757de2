package workload

import (
	"encoding/binary"
	"hash/fnv"
	"sync"
	"testing"
)

// graphHash is FNV-1a over the little-endian rowPtr words, then the adj
// words: it pins the CSR graph byte for byte.
func graphHash(g *graph) uint64 { return wordsHash(g.rowPtr, g.adj) }

// wordsHash is FNV-1a over the little-endian words of each array in turn.
func wordsHash(arrs ...[]uint32) uint64 {
	h := fnv.New64a()
	var w [4]byte
	for _, arr := range arrs {
		for _, x := range arr {
			binary.LittleEndian.PutUint32(w[:], x)
			h.Write(w[:])
		}
	}
	return h.Sum64()
}

// TestRMATGraphPinned pins the exact RMAT graph for level counts of every
// residue mod 4 (each rng draw feeds four levels, so the last draw is
// partly used at 13, 14 and 15 levels) and an odd degree and seed. Any
// change to the edge generator or the CSR build that moves one edge fails
// here; the simulated results depend on the graph being byte-identical.
func TestRMATGraphPinned(t *testing.T) {
	for _, c := range []struct {
		vertices, degree int
		seed             uint64
		want             uint64
	}{
		{1 << 12, 8, 1, 0x2dca0cf3a887ab8a},
		{1 << 13, 8, 1, 0x11cb43f1c4de73ee},
		{1 << 14, 8, 2, 0x773365f89cb9e915},
		{1 << 15, 8, 3, 0x623dd9de364fba4f},
		{1 << 11, 7, 0x9e3779b97f4a7c15, 0x8a089ed251de92be},
		{1 << 2, 3, 5, 0xb514bf7fe915a5c5},
	} {
		g := buildGraph(c.vertices, c.degree, c.seed)
		if got := graphHash(g); got != c.want {
			t.Errorf("buildGraph(%d, %d, %#x): hash %#016x, want %#016x",
				c.vertices, c.degree, c.seed, got, c.want)
		}
	}
}

// TestRMATGraphPinnedAtBenchScale pins the 2^19-vertex graph that
// perfbench's fsim-sweep workload and the figures' graph scale build.
func TestRMATGraphPinnedAtBenchScale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4M-edge graph")
	}
	const want uint64 = 0x8f56ece4444236b5
	if got := graphHash(buildGraph(1<<19, 8, 1)); got != want {
		t.Fatalf("buildGraph(1<<19, 8, 1): hash %#016x, want %#016x", got, want)
	}
}

// TestTraversalOrdersPinned pins the BFS and DFS visit orders, which the
// traversal kernels replay.
func TestTraversalOrdersPinned(t *testing.T) {
	for _, c := range []struct {
		vertices, degree int
		seed             uint64
		bfs, dfs         uint64
	}{
		{1 << 12, 8, 1, 0x4e974a2d837b92f9, 0xaf29fdffabecda35},
		{1 << 11, 7, 0x9e3779b97f4a7c15, 0x130ea28e88721b85, 0xbdc15474dfebf095},
	} {
		g := buildGraph(c.vertices, c.degree, c.seed)
		if got := wordsHash(g.orderBFS()); got != c.bfs {
			t.Errorf("BFS order of (%d, %d, %#x): hash %#016x, want %#016x", c.vertices, c.degree, c.seed, got, c.bfs)
		}
		if got := wordsHash(g.orderDFS()); got != c.dfs {
			t.Errorf("DFS order of (%d, %d, %#x): hash %#016x, want %#016x", c.vertices, c.degree, c.seed, got, c.dfs)
		}
	}
}

// rmatQuadrantRef is the branching RMAT quadrant step, rmatDraw's
// reference: the source and destination bits for one 16-bit slice.
func rmatQuadrantRef(p uint32) (s, d uint32) {
	switch {
	case p < rmatA: // quadrant a
		return 0, 0
	case p < rmatB: // b
		return 0, 1
	case p < rmatC: // c
		return 1, 0
	default: // d
		return 1, 1
	}
}

// TestRMATDrawMatchesSwitch puts every 16-bit value in every slice of a
// draw, beside pseudo-random neighbours, and checks all four levels of
// rmatDraw against the branching reference.
func TestRMATDrawMatchesSwitch(t *testing.T) {
	r := newRNG(7)
	for p := uint64(0); p < 1<<16; p++ {
		for lane := 0; lane < 4; lane++ {
			shift := 16 * uint(lane)
			bits := r.next()&^(0xffff<<shift) | p<<shift
			s, d := rmatDraw(bits)
			for k := uint(0); k < 4; k++ {
				ws, wd := rmatQuadrantRef(uint32(bits>>(16*k)) & 0xffff)
				if s>>k&1 != ws || d>>k&1 != wd {
					t.Fatalf("rmatDraw(%#016x) level %d: (%d, %d), switch gives (%d, %d)",
						bits, k, s>>k&1, d>>k&1, ws, wd)
				}
			}
		}
	}
}

// TestConcurrentNewSetSharesOneGraph has graph-kernel sets for one key
// built and replayed at once, as internal/run's worker pool does: every
// caller must get the one cached graph (a second build would hand some
// caller a different pointer), and under -race the lazy traversal orders
// must be race-free.
func TestConcurrentNewSetSharesOneGraph(t *testing.T) {
	const seed = 0xc0ffee // a key no other test builds
	sc := TestScale()
	names := []string{"BFS", "DFS", "pageRank", "BFS", "DFS", "pageRank", "BFS", "DFS"}
	graphs := make([]*graph, len(names))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			gens, err := NewSet(name, 2, seed, sc)
			if err != nil {
				t.Error(err)
				return
			}
			for _, gen := range gens {
				for k := 0; k < 64; k++ {
					gen.Next()
				}
			}
			graphs[i] = gens[0].(*graphGen).g
		}()
	}
	close(start)
	wg.Wait()
	for i, g := range graphs {
		if g != graphs[0] {
			t.Fatalf("caller %d (%s) got a graph other than caller 0's: the key was built twice", i, names[i])
		}
	}
}

var sinkGraph *graph

// BenchmarkRMATBuild times one RMAT build at perfbench's fsim-sweep size.
func BenchmarkRMATBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkGraph = buildGraph(1<<19, 8, 1)
	}
}
