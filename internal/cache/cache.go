// Package cache provides the functional set-associative cache model used
// for every cache in the hierarchy (L1, L2, LLC slices, the MC's counter
// cache). Caches here are tag stores: hit/miss/eviction/invalidation logic
// with LRU replacement, block-kind accounting and the per-kind occupancy
// cap EMCC imposes on counters in L2 (Sec. V: "EMCC only caches 32KB worth
// of counters in L2"). All timing lives in the hierarchy model.
package cache

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/inv"
)

// line is one cache way.
type line struct {
	tag     uint64 // block index (full address >> 6); sets are by index bits
	valid   bool
	dirty   bool
	kind    addr.Kind
	lastUse uint64 // LRU stamp
	// usedForLLCMiss supports the Fig 11 accounting: a counter block
	// speculatively fetched into L2 was "useless" if it is evicted
	// without ever serving a data miss that also missed in LLC.
	usedForLLCMiss bool
}

// Victim describes an evicted block.
type Victim struct {
	Block uint64
	Dirty bool
	Kind  addr.Kind
	// WasUsed is the usedForLLCMiss flag at eviction (Fig 11 stat).
	WasUsed bool
}

// Cache is a set-associative tag store. Not safe for concurrent use: the
// simulator is single-threaded by design.
type Cache struct {
	name    string
	sets    uint64
	ways    int
	lines   []line // sets*ways, set-major
	stamp   uint64
	kindCnt [addr.NumKinds]int

	// ctrCapLines, when positive, caps how many lines may hold
	// counter-kind blocks; inserting past the cap evicts the LRU
	// counter line instead of the global LRU (EMCC's 32 KB rule).
	ctrCapLines int

	// rec is the owning run's invariant recorder (never nil; defaults to
	// the process-wide recorder until SetRecorder rebinds it).
	rec *inv.Recorder
}

// New builds a cache of capacityBytes with the given associativity over
// 64 B blocks. Capacity must divide evenly into sets.
func New(name string, capacityBytes int64, ways int) *Cache {
	if capacityBytes <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache %s: invalid geometry %dB/%d-way", name, capacityBytes, ways))
	}
	blocks := capacityBytes / addr.BlockBytes
	if blocks%int64(ways) != 0 {
		panic(fmt.Sprintf("cache %s: %d blocks not divisible by %d ways", name, blocks, ways))
	}
	sets := uint64(blocks) / uint64(ways)
	if sets == 0 {
		panic(fmt.Sprintf("cache %s: zero sets", name))
	}
	return &Cache{
		name:  name,
		sets:  sets,
		ways:  ways,
		lines: make([]line, sets*uint64(ways)),
		rec:   inv.Default(),
	}
}

// NewSets builds a cache with an explicit set count (the sliced-LLC shards
// carry uneven set shares, so their geometry is given in sets, not bytes).
func NewSets(name string, sets uint64, ways int) *Cache {
	if sets == 0 || ways <= 0 {
		panic(fmt.Sprintf("cache %s: invalid geometry %d sets/%d-way", name, sets, ways))
	}
	return &Cache{
		name:  name,
		sets:  sets,
		ways:  ways,
		lines: make([]line, sets*uint64(ways)),
		rec:   inv.Default(),
	}
}

// SplitSets partitions total sets across n shards: total/n each, with the
// remainder spread over the first shards and a floor of one set — the one
// canonical split the timing and functional LLC slicings must share so
// their contents stay comparable.
func SplitSets(total uint64, n int) []uint64 {
	out := make([]uint64, n)
	base, rem := total/uint64(n), int(total%uint64(n))
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
		if out[i] == 0 {
			out[i] = 1
		}
	}
	return out
}

// SetRecorder binds the owning run's invariant recorder (nil rebinds the
// default). Call at construction time, before any traffic.
func (c *Cache) SetRecorder(r *inv.Recorder) { c.rec = inv.Or(r) }

// SetCounterCap caps counter-kind occupancy to capBytes worth of lines.
func (c *Cache) SetCounterCap(capBytes int64) {
	c.ctrCapLines = int(capBytes / addr.BlockBytes)
}

// Name reports the cache's label.
func (c *Cache) Name() string { return c.name }

// Ways reports associativity.
func (c *Cache) Ways() int { return c.ways }

// Sets reports the number of sets.
func (c *Cache) Sets() uint64 { return c.sets }

// KindCount reports how many lines currently hold blocks of kind k.
func (c *Cache) KindCount(k addr.Kind) int { return c.kindCnt[k] }

func (c *Cache) set(block uint64) []line {
	s := block % c.sets
	return c.lines[s*uint64(c.ways) : (s+1)*uint64(c.ways)]
}

// Lookup probes for a block, updating LRU on hit.
func (c *Cache) Lookup(block uint64) bool {
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

// Peek probes without updating LRU.
func (c *Cache) Peek(block uint64) bool {
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].tag == block {
			return true
		}
	}
	return false
}

// MarkDirty sets the dirty bit of a resident block; reports residency.
func (c *Cache) MarkDirty(block uint64) bool {
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].tag == block {
			set[i].dirty = true
			return true
		}
	}
	return false
}

// MarkUsed flags a resident counter block as having served an LLC data
// miss (Fig 11 accounting); reports residency.
func (c *Cache) MarkUsed(block uint64) bool {
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].tag == block {
			set[i].usedForLLCMiss = true
			return true
		}
	}
	return false
}

// Insert places a block, evicting if needed, and returns the victim (ok
// reports whether a valid block was displaced). Inserting a block that is
// already resident refreshes its LRU/dirty state instead.
//
// When a counter cap is configured and the cache is at it, a counter
// insertion replaces the LRU counter of its set; if the set holds no
// counter, the insertion is dropped — the budget is a hard partition, so
// counters can never displace more data than the cap allows (Sec. V).
func (c *Cache) Insert(block uint64, dirty bool, kind addr.Kind) (Victim, bool) {
	set := c.set(block)
	c.stamp++
	// Already resident?
	for i := range set {
		if set[i].valid && set[i].tag == block {
			set[i].lastUse = c.stamp
			set[i].dirty = set[i].dirty || dirty
			return Victim{}, false
		}
	}
	victimIdx := c.pickVictim(set, kind)
	if victimIdx < 0 {
		return Victim{}, false // counter insert dropped at cap
	}
	v := set[victimIdx]
	var out Victim
	evicted := false
	if v.valid {
		out = Victim{Block: v.tag, Dirty: v.dirty, Kind: v.kind, WasUsed: v.usedForLLCMiss}
		evicted = true
		c.kindCnt[v.kind]--
	}
	set[victimIdx] = line{tag: block, valid: true, dirty: dirty, kind: kind, lastUse: c.stamp}
	c.kindCnt[kind]++
	if c.rec.On() {
		c.checkSet(set, block)
	}
	return out, evicted
}

// checkSet validates the per-set invariants after a mutation: a block is
// resident in at most one way, LRU stamps never run ahead of the global
// stamp, and counter occupancy respects the configured cap. O(ways), gated.
func (c *Cache) checkSet(set []line, block uint64) {
	rec := c.rec
	if !rec.On() {
		return
	}
	seen := 0
	for i := range set {
		if !set[i].valid {
			continue
		}
		if set[i].tag == block {
			seen++
		}
		if set[i].lastUse > c.stamp {
			rec.Failf("cache", "%s: line lastUse %d ahead of global stamp %d", c.name, set[i].lastUse, c.stamp)
		}
	}
	if seen > 1 {
		rec.Failf("cache", "%s: block %#x resident in %d ways of one set", c.name, block, seen)
	}
	if c.ctrCapLines > 0 && c.kindCnt[addr.KindCounter] > c.ctrCapLines {
		rec.Failf("cache", "%s: %d counter lines exceed cap %d", c.name, c.kindCnt[addr.KindCounter], c.ctrCapLines)
	}
}

// CheckConsistency fully rescans the tag store and cross-checks the
// per-kind occupancy ledger, the counter cap and intra-set tag uniqueness.
// O(capacity): the verification harness calls it after a run; it is not for
// per-access use.
func (c *Cache) CheckConsistency() error {
	var recount [addr.NumKinds]int
	for s := uint64(0); s < c.sets; s++ {
		set := c.lines[s*uint64(c.ways) : (s+1)*uint64(c.ways)]
		tags := make(map[uint64]int)
		for i := range set {
			if !set[i].valid {
				continue
			}
			recount[set[i].kind]++
			tags[set[i].tag]++
			if set[i].tag%c.sets != s {
				return fmt.Errorf("cache %s: block %#x stored in set %d, maps to set %d", c.name, set[i].tag, s, set[i].tag%c.sets)
			}
			if set[i].lastUse > c.stamp {
				return fmt.Errorf("cache %s: line lastUse %d ahead of global stamp %d", c.name, set[i].lastUse, c.stamp)
			}
		}
		for tag, n := range tags {
			if n > 1 {
				return fmt.Errorf("cache %s: block %#x resident in %d ways of set %d", c.name, tag, n, s)
			}
		}
	}
	for k, n := range c.kindCnt {
		if n != recount[k] {
			return fmt.Errorf("cache %s: kind %v ledger says %d lines, tag store holds %d", c.name, addr.Kind(k), n, recount[k])
		}
	}
	if c.ctrCapLines > 0 && c.kindCnt[addr.KindCounter] > c.ctrCapLines {
		return fmt.Errorf("cache %s: %d counter lines exceed cap %d", c.name, c.kindCnt[addr.KindCounter], c.ctrCapLines)
	}
	return nil
}

// pickVictim chooses the way to replace: an invalid way first; otherwise,
// if inserting a counter at the counter cap, the LRU *counter* way in this
// set — or no way at all (-1, insert dropped) when the set has none;
// otherwise global LRU.
func (c *Cache) pickVictim(set []line, kind addr.Kind) int {
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

// Invalidate removes a block; reports whether it was resident and returns
// its pre-invalidation state (for writeback-on-invalidate policies and the
// Fig 23 accounting).
func (c *Cache) Invalidate(block uint64) (Victim, bool) {
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].tag == block {
			v := Victim{Block: set[i].tag, Dirty: set[i].dirty, Kind: set[i].kind, WasUsed: set[i].usedForLLCMiss}
			if rec := c.rec; rec.On() && c.kindCnt[set[i].kind] <= 0 {
				rec.Failf("cache", "%s: invalidating %v block %#x with non-positive kind ledger %d", c.name, set[i].kind, block, c.kindCnt[set[i].kind])
			}
			c.kindCnt[set[i].kind]--
			set[i] = line{}
			return v, true
		}
	}
	return Victim{}, false
}

// Occupancy reports the number of valid lines (for tests).
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}
