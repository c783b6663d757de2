package cache

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/noc"
)

// tiny builds a 2-set, 2-way cache (256 B): block index parity selects the
// set.
func tiny() *Cache { return New("t", 256, 2) }

func TestHitAfterInsert(t *testing.T) {
	c := tiny()
	c.Insert(4, false, addr.KindData)
	if !c.Lookup(4) {
		t.Fatal("miss after insert")
	}
	if c.Lookup(6) {
		t.Fatal("hit on never-inserted block")
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny()
	// Set 0 holds even blocks; fill both ways then touch 0 so 2 is LRU.
	c.Insert(0, false, addr.KindData)
	c.Insert(2, false, addr.KindData)
	c.Lookup(0)
	v, ok := c.Insert(4, false, addr.KindData)
	if !ok || v.Block != 2 {
		t.Fatalf("victim = %+v ok=%v, want block 2", v, ok)
	}
	if !c.Lookup(0) || !c.Lookup(4) || c.Lookup(2) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestInsertExistingMergesDirty(t *testing.T) {
	c := tiny()
	c.Insert(0, true, addr.KindData)
	if _, ok := c.Insert(0, false, addr.KindData); ok {
		t.Fatal("re-insert produced a victim")
	}
	c.Insert(2, false, addr.KindData)
	// Block 0 is LRU; its eviction must report the dirty bit the clean
	// re-insert kept.
	v, ok := c.Insert(4, false, addr.KindData)
	if !ok || v.Block != 0 || !v.Dirty {
		t.Fatalf("victim = %+v ok=%v, want dirty block 0", v, ok)
	}
}

func TestDirtyVictimReported(t *testing.T) {
	c := tiny()
	c.Insert(0, true, addr.KindData)
	c.Insert(2, false, addr.KindData)
	v, ok := c.Insert(4, false, addr.KindData)
	if !ok || v.Block != 0 || !v.Dirty {
		t.Fatalf("victim = %+v, want dirty block 0", v)
	}
}

func TestMarkDirty(t *testing.T) {
	c := tiny()
	if c.MarkDirty(0) {
		t.Fatal("marked a non-resident block dirty")
	}
	c.Insert(0, false, addr.KindData)
	if !c.MarkDirty(0) {
		t.Fatal("failed to mark resident block")
	}
	c.Insert(2, false, addr.KindData)
	v, _ := c.Insert(4, false, addr.KindData)
	if v.Block != 0 || !v.Dirty {
		t.Fatalf("dirty mark lost: victim %+v", v)
	}
}

func TestInvalidate(t *testing.T) {
	c := tiny()
	c.Insert(0, true, addr.KindCounter)
	v, ok := c.Invalidate(0)
	if !ok || !v.Dirty || v.Kind != addr.KindCounter {
		t.Fatalf("invalidate = %+v ok=%v", v, ok)
	}
	if c.Lookup(0) {
		t.Fatal("block still resident after invalidate")
	}
	if _, ok := c.Invalidate(0); ok {
		t.Fatal("double invalidate reported residency")
	}
}

func TestMarkUsedTracksUselessness(t *testing.T) {
	c := tiny()
	c.Insert(0, false, addr.KindCounter)
	c.Insert(2, false, addr.KindData)
	c.MarkUsed(0)
	c.Lookup(2)
	v, _ := c.Insert(4, false, addr.KindData) // evicts 0 (LRU)
	if v.Block != 0 || !v.WasUsed {
		t.Fatalf("used flag lost: %+v", v)
	}
}

func TestKindCounting(t *testing.T) {
	c := New("k", 1024, 4)
	c.Insert(0, false, addr.KindData)
	c.Insert(1, false, addr.KindCounter)
	c.Insert(2, false, addr.KindTree)
	if c.KindCount(addr.KindData) != 1 || c.KindCount(addr.KindCounter) != 1 || c.KindCount(addr.KindTree) != 1 {
		t.Fatal("kind counts wrong after inserts")
	}
	c.Invalidate(1)
	if c.KindCount(addr.KindCounter) != 0 {
		t.Fatal("kind count wrong after invalidate")
	}
}

// TestCheckConsistencyCatchesCorruptLedger: the full rescan accepts an
// honest ledger and rejects one that drifted from the tag store in either
// direction. With several kinds wrong at once the error names the first in
// kind order, so the report is the same on every run.
func TestCheckConsistencyCatchesCorruptLedger(t *testing.T) {
	c := New("k", 1024, 4)
	c.Insert(0, false, addr.KindData)
	c.Insert(1, false, addr.KindCounter)
	c.Insert(2, false, addr.KindTree)
	if err := c.CheckConsistency(); err != nil {
		t.Fatalf("consistent cache rejected: %v", err)
	}
	c.kindCnt[addr.KindTree] += 2
	c.kindCnt[addr.KindCounter]--
	for i := 0; i < 20; i++ {
		err := c.CheckConsistency()
		if err == nil {
			t.Fatal("corrupt ledger accepted")
		}
		if want := "cache k: kind counter ledger says 0 lines, tag store holds 1"; err.Error() != want {
			t.Fatalf("error = %q, want %q", err, want)
		}
	}
	c.kindCnt[addr.KindCounter]++
	if err := c.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "kind tree ledger says 3 lines, tag store holds 1") {
		t.Fatalf("over-counted tree ledger not reported: %v", err)
	}
}

// TestCounterCapIsHardPartition: with a cap, counter occupancy never
// exceeds it, and counter inserts never evict data once the cap is hit.
func TestCounterCapIsHardPartition(t *testing.T) {
	c := New("cap", 4096, 4) // 64 lines, 16 sets
	c.SetCounterCap(4 * 64)  // 4 counter lines max
	// Fill with data.
	for i := uint64(0); i < 64; i++ {
		c.Insert(i, false, addr.KindData)
	}
	dataEvictions := 0
	for i := uint64(1000); i < 1100; i++ {
		if v, ok := c.Insert(i, false, addr.KindCounter); ok && v.Kind == addr.KindData {
			dataEvictions++
		}
		if got := c.KindCount(addr.KindCounter); got > 4 {
			t.Fatalf("counter occupancy %d exceeds cap 4", got)
		}
	}
	if dataEvictions > 4 {
		t.Fatalf("counters displaced %d data lines, cap allows at most 4", dataEvictions)
	}
}

func TestOccupancy(t *testing.T) {
	c := tiny()
	if c.Occupancy() != 0 {
		t.Fatal("fresh cache not empty")
	}
	c.Insert(0, false, addr.KindData)
	c.Insert(1, false, addr.KindData)
	if c.Occupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2", c.Occupancy())
	}
}

// TestLookupConsistencyProperty: after inserting a set of blocks into a
// large-enough cache, every one of them hits.
func TestLookupConsistencyProperty(t *testing.T) {
	f := func(blocks []uint64) bool {
		if len(blocks) > 16 {
			blocks = blocks[:16]
		}
		c := New("p", 64*64, 64) // fully associative, 64 lines
		for _, b := range blocks {
			c.Insert(b, false, addr.KindData)
		}
		for _, b := range blocks {
			if !c.Lookup(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New("x", 0, 4) },
		func() { New("x", 192, 4) }, // 3 blocks not divisible by 4 ways
		func() { New("x", 64, 2) },  // zero sets
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry did not panic")
				}
			}()
			fn()
		}()
	}
}

// refCache is the array-of-structs tag store the struct-of-arrays Cache
// replaced, kept as the reference model for TestDifferentialAgainstRef:
// one 40-byte line per way, `%` set indexing, separate hit and victim
// scans. Same public behaviour, no invariant recorder.
type refCache struct {
	sets        uint64
	ways        int
	lines       []refLine
	stamp       uint64
	kindCnt     [addr.NumKinds]int
	ctrCapLines int
}

type refLine struct {
	tag            uint64
	valid          bool
	dirty          bool
	kind           addr.Kind
	lastUse        uint64
	usedForLLCMiss bool
}

func newRef(sets uint64, ways int) *refCache {
	return &refCache{sets: sets, ways: ways, lines: make([]refLine, sets*uint64(ways))}
}

func (c *refCache) set(block uint64) []refLine {
	s := block % c.sets
	return c.lines[s*uint64(c.ways) : (s+1)*uint64(c.ways)]
}

func (c *refCache) Lookup(block uint64) bool {
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].tag == block {
			c.stamp++
			set[i].lastUse = c.stamp
			return true
		}
	}
	return false
}

func (c *refCache) Peek(block uint64) bool {
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].tag == block {
			return true
		}
	}
	return false
}

func (c *refCache) MarkDirty(block uint64) bool {
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].tag == block {
			set[i].dirty = true
			return true
		}
	}
	return false
}

func (c *refCache) MarkUsed(block uint64) bool {
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].tag == block {
			set[i].usedForLLCMiss = true
			return true
		}
	}
	return false
}

func (c *refCache) Insert(block uint64, dirty bool, kind addr.Kind) (Victim, bool) {
	set := c.set(block)
	c.stamp++
	for i := range set {
		if set[i].valid && set[i].tag == block {
			set[i].lastUse = c.stamp
			set[i].dirty = set[i].dirty || dirty
			return Victim{}, false
		}
	}
	victimIdx := c.pickVictim(set, kind)
	if victimIdx < 0 {
		return Victim{}, false
	}
	v := set[victimIdx]
	var out Victim
	evicted := false
	if v.valid {
		out = Victim{Block: v.tag, Dirty: v.dirty, Kind: v.kind, WasUsed: v.usedForLLCMiss}
		evicted = true
		c.kindCnt[v.kind]--
	}
	set[victimIdx] = refLine{tag: block, valid: true, dirty: dirty, kind: kind, lastUse: c.stamp}
	c.kindCnt[kind]++
	return out, evicted
}

func (c *refCache) pickVictim(set []refLine, kind addr.Kind) int {
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	if c.ctrCapLines > 0 && kind == addr.KindCounter && c.kindCnt[addr.KindCounter] >= c.ctrCapLines {
		best := -1
		for i := range set {
			if set[i].kind == addr.KindCounter && (best < 0 || set[i].lastUse < set[best].lastUse) {
				best = i
			}
		}
		return best
	}
	best := 0
	for i := 1; i < len(set); i++ {
		if set[i].lastUse < set[best].lastUse {
			best = i
		}
	}
	return best
}

func (c *refCache) Invalidate(block uint64) (Victim, bool) {
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].tag == block {
			v := Victim{Block: set[i].tag, Dirty: set[i].dirty, Kind: set[i].kind, WasUsed: set[i].usedForLLCMiss}
			c.kindCnt[set[i].kind]--
			set[i] = refLine{}
			return v, true
		}
	}
	return Victim{}, false
}

func (c *refCache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// TestDifferentialAgainstRef drives Cache and refCache with the same
// seeded random operation stream over every geometry the simulators
// build, and requires identical answers after every operation: return
// values, per-kind occupancy and total occupancy. Half the traffic hammers
// a few hot sets (hits, LRU and capped-counter eviction); the rest spreads
// over four times the capacity (cold misses, the counter cap filling up).
func TestDifferentialAgainstRef(t *testing.T) {
	cfg := config.Default()
	mesh := noc.New(cfg.MeshCols, cfg.MeshRows, cfg.NoCHopLatency, cfg.NoCBaseOneWay)
	llcSets := SplitSets(uint64(cfg.L3Bytes/addr.BlockBytes)/uint64(cfg.L3Ways), mesh.CoreTiles())
	if llcSets[0]&(llcSets[0]-1) == 0 {
		t.Fatalf("LLC slice has %d sets, want a non-power-of-two share", llcSets[0])
	}
	for _, g := range []struct {
		name   string
		c      *Cache
		capB   int64
		ctrPct int // share of inserts that are counters; the rest split data/tree
		ops    int
	}{
		{name: "tiny", c: tiny(), ctrPct: 34, ops: 20000},
		{name: "l1", c: New("l1", cfg.L1Bytes, cfg.L1Ways), ctrPct: 34, ops: 20000},
		{name: "l2-capped", c: New("l2", cfg.L2Bytes, cfg.L2Ways), capB: cfg.EMCCL2CounterBytes, ctrPct: 34, ops: 8000},
		{name: "llc-slice", c: NewSets("llc", llcSets[0], cfg.L3Ways), ctrPct: 34, ops: 8000},
		{name: "mc-ctr", c: New("mc", cfg.CtrCacheBytes, cfg.CtrCacheWays), capB: cfg.CtrCacheBytes * 3 / 4, ctrPct: 85, ops: 20000},
		{name: "fully-assoc", c: New("fa", 16*addr.BlockBytes, 16), ctrPct: 34, ops: 20000},
	} {
		t.Run(g.name, func(t *testing.T) {
			c := g.c
			ref := newRef(c.Sets(), c.Ways())
			if g.capB > 0 {
				c.SetCounterCap(g.capB)
				ref.ctrCapLines = int(g.capB / addr.BlockBytes)
			}
			sets, ways := c.Sets(), uint64(c.Ways())
			lines := sets * ways
			r := rand.New(rand.NewPCG(uint64(len(g.name)), 13))
			hot := []uint64{0, sets - 1, r.Uint64N(sets), r.Uint64N(sets)}
			block := func() uint64 {
				if r.IntN(2) == 0 {
					return hot[r.IntN(len(hot))] + sets*r.Uint64N(2*ways)
				}
				return r.Uint64N(4 * lines)
			}
			capHit := false
			for op := 0; op < g.ops; op++ {
				b := block()
				var got, want any
				switch n := r.IntN(100); {
				case n < 25:
					got, want = c.Lookup(b), ref.Lookup(b)
				case n < 35:
					got, want = c.Peek(b), ref.Peek(b)
				case n < 75:
					dirty, kind := r.IntN(2) == 0, addr.KindCounter
					if p := r.IntN(100); p >= g.ctrPct {
						kind = addr.KindData
						if p%2 == 1 {
							kind = addr.KindTree
						}
					}
					v, ok := c.Insert(b, dirty, kind)
					rv, rok := ref.Insert(b, dirty, kind)
					got, want = [2]any{v, ok}, [2]any{rv, rok}
				case n < 83:
					got, want = c.MarkDirty(b), ref.MarkDirty(b)
				case n < 91:
					got, want = c.MarkUsed(b), ref.MarkUsed(b)
				default:
					v, ok := c.Invalidate(b)
					rv, rok := ref.Invalidate(b)
					got, want = [2]any{v, ok}, [2]any{rv, rok}
				}
				if got != want {
					t.Fatalf("op %d on block %#x: got %v, reference %v", op, b, got, want)
				}
				for k := addr.Kind(0); k < addr.NumKinds; k++ {
					if c.KindCount(k) != ref.kindCnt[k] {
						t.Fatalf("op %d: KindCount(%v) = %d, reference %d", op, k, c.KindCount(k), ref.kindCnt[k])
					}
				}
				if c.Occupancy() != ref.Occupancy() {
					t.Fatalf("op %d: Occupancy = %d, reference %d", op, c.Occupancy(), ref.Occupancy())
				}
				capHit = capHit || (ref.ctrCapLines > 0 && ref.kindCnt[addr.KindCounter] >= ref.ctrCapLines)
			}
			if g.capB > 0 && !capHit {
				t.Fatal("stream never reached the counter cap")
			}
			// A counter insert takes a free way even at the cap (pickVictim
			// prefers invalid ways), so a stream that invalidates data
			// can leave more counter lines than the cap. Both models do
			// it; the full rescan must then report exactly that. The cap
			// is CheckConsistency's last check, so that error also means
			// every other check passed.
			err := c.CheckConsistency()
			if n := ref.kindCnt[addr.KindCounter]; ref.ctrCapLines > 0 && n > ref.ctrCapLines {
				want := fmt.Sprintf("cache %s: %d counter lines exceed cap %d", c.Name(), n, ref.ctrCapLines)
				if err == nil || err.Error() != want {
					t.Fatalf("CheckConsistency = %v, want %q", err, want)
				}
			} else if err != nil {
				t.Fatal(err)
			}
		})
	}
}
