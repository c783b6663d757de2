package cache

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/addr"
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
	c.Insert(4, false, addr.KindData) // evicts LRU: 0
	v, _ := c.Insert(6, false, addr.KindData)
	_ = v
	// The dirty bit must have survived the merge: whichever eviction
	// removed block 0 must have reported dirty.
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
