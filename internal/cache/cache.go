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

// Per-way flag byte: the block kind in the low bits, then the dirty bit
// and the used bit. The used bit supports the Fig 11 accounting: a
// counter block speculatively fetched into L2 was "useless" if it is
// evicted without ever serving a data miss that also missed in LLC.
const (
	flagKind  = 0x0f
	flagDirty = 0x10
	flagUsed  = 0x20
)

// Every addr.Kind must fit in flagKind (compile-time check).
var _ [flagKind + 1 - addr.NumKinds]struct{}

// Victim describes an evicted block.
type Victim struct {
	Block uint64
	Dirty bool
	Kind  addr.Kind
	// WasUsed is the way's used bit at eviction (Fig 11 stat).
	WasUsed bool
}

// Cache is a set-associative tag store. Not safe for concurrent use: the
// simulator is single-threaded by design.
//
// The tag store is struct-of-arrays, set-major (way w of set s is index
// s*ways+w): a probe scans only the set's tags, 8 B per way.
type Cache struct {
	name string
	sets uint64
	// mask is sets-1 when sets is a power of two above one (set index
	// by mask); otherwise zero, and the index is block % sets (the uneven
	// LLC slice shares).
	mask    uint64
	ways    int
	tags    []uint64 // block+1; 0 marks an invalid way
	stamps  []uint64 // LRU stamps
	flags   []uint8  // kind | flagDirty | flagUsed
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
	return newCache(name, sets, ways)
}

// NewSets builds a cache with an explicit set count (the sliced-LLC shards
// carry uneven set shares, so their geometry is given in sets, not bytes).
func NewSets(name string, sets uint64, ways int) *Cache {
	if sets == 0 || ways <= 0 {
		panic(fmt.Sprintf("cache %s: invalid geometry %d sets/%d-way", name, sets, ways))
	}
	return newCache(name, sets, ways)
}

func newCache(name string, sets uint64, ways int) *Cache {
	n := sets * uint64(ways)
	c := &Cache{
		name:   name,
		sets:   sets,
		ways:   ways,
		tags:   make([]uint64, n),
		stamps: make([]uint64, n),
		flags:  make([]uint8, n),
		rec:    inv.Default(),
	}
	if sets&(sets-1) == 0 {
		c.mask = sets - 1
	}
	return c
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

// base returns the index of way 0 of block's set.
func (c *Cache) base(block uint64) int {
	s := block & c.mask
	if c.mask == 0 {
		s = block % c.sets
	}
	return int(s) * c.ways
}

// find returns the index of the way holding block, or -1.
func (c *Cache) find(block uint64) int {
	b := c.base(block)
	t := block + 1
	for i, x := range c.tags[b : b+c.ways] {
		if x == t {
			return b + i
		}
	}
	return -1
}

// victim reports way i's block state.
func (c *Cache) victim(i int) Victim {
	f := c.flags[i]
	return Victim{Block: c.tags[i] - 1, Dirty: f&flagDirty != 0, Kind: addr.Kind(f & flagKind), WasUsed: f&flagUsed != 0}
}

// Lookup probes for a block, updating LRU on hit.
func (c *Cache) Lookup(block uint64) bool {
	i := c.find(block)
	if i < 0 {
		return false
	}
	c.stamp++
	c.stamps[i] = c.stamp
	return true
}

// Peek probes without updating LRU.
func (c *Cache) Peek(block uint64) bool { return c.find(block) >= 0 }

// MarkDirty sets the dirty bit of a resident block; reports residency.
func (c *Cache) MarkDirty(block uint64) bool {
	i := c.find(block)
	if i < 0 {
		return false
	}
	c.flags[i] |= flagDirty
	return true
}

// MarkUsed flags a resident counter block as having served an LLC data
// miss (Fig 11 accounting); reports residency.
func (c *Cache) MarkUsed(block uint64) bool {
	i := c.find(block)
	if i < 0 {
		return false
	}
	c.flags[i] |= flagUsed
	return true
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
	b := c.base(block)
	c.stamp++
	t := block + 1
	// Already resident? The same scan notes the first invalid way.
	free := -1
	for i, x := range c.tags[b : b+c.ways] {
		if x == t {
			c.stamps[b+i] = c.stamp
			if dirty {
				c.flags[b+i] |= flagDirty
			}
			return Victim{}, false
		}
		if x == 0 && free < 0 {
			free = b + i
		}
	}
	vi := free
	if vi < 0 {
		vi = c.pickVictim(b, kind)
		if vi < 0 {
			return Victim{}, false // counter insert dropped at cap
		}
	}
	var out Victim
	evicted := false
	if c.tags[vi] != 0 {
		out = c.victim(vi)
		evicted = true
		c.kindCnt[out.Kind]--
	}
	f := uint8(kind)
	if dirty {
		f |= flagDirty
	}
	c.tags[vi], c.stamps[vi], c.flags[vi] = t, c.stamp, f
	c.kindCnt[kind]++
	if c.rec.On() {
		c.checkSet(b, block)
	}
	return out, evicted
}

// checkSet validates the per-set invariants after a mutation: a block is
// resident in at most one way, LRU stamps never run ahead of the global
// stamp, and counter occupancy respects the configured cap. O(ways), gated.
func (c *Cache) checkSet(b int, block uint64) {
	rec := c.rec
	if !rec.On() {
		return
	}
	seen := 0
	for i := b; i < b+c.ways; i++ {
		if c.tags[i] == 0 {
			continue
		}
		if c.tags[i] == block+1 {
			seen++
		}
		if c.stamps[i] > c.stamp {
			rec.Failf("cache", "%s: line lastUse %d ahead of global stamp %d", c.name, c.stamps[i], c.stamp)
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
		b := int(s) * c.ways
		tags := make(map[uint64]int)
		for i := b; i < b+c.ways; i++ {
			if c.tags[i] == 0 {
				continue
			}
			block := c.tags[i] - 1
			recount[c.flags[i]&flagKind]++
			tags[block]++
			if block%c.sets != s {
				return fmt.Errorf("cache %s: block %#x stored in set %d, maps to set %d", c.name, block, s, block%c.sets)
			}
			if c.stamps[i] > c.stamp {
				return fmt.Errorf("cache %s: line lastUse %d ahead of global stamp %d", c.name, c.stamps[i], c.stamp)
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

// pickVictim chooses the way to replace in a full set starting at b: if
// inserting a counter at the counter cap, the LRU *counter* way in this
// set — or no way at all (-1, insert dropped) when the set has none;
// otherwise global LRU.
func (c *Cache) pickVictim(b int, kind addr.Kind) int {
	stamps := c.stamps[b : b+c.ways]
	if c.ctrCapLines > 0 && kind == addr.KindCounter && c.kindCnt[addr.KindCounter] >= c.ctrCapLines {
		best := -1
		for i, f := range c.flags[b : b+c.ways] {
			if addr.Kind(f&flagKind) == addr.KindCounter && (best < 0 || stamps[i] < stamps[best]) {
				best = i
			}
		}
		if best < 0 {
			return -1
		}
		return b + best
	}
	best := 0
	for i := 1; i < len(stamps); i++ {
		if stamps[i] < stamps[best] {
			best = i
		}
	}
	return b + best
}

// Invalidate removes a block; reports whether it was resident and returns
// its pre-invalidation state (for writeback-on-invalidate policies and the
// Fig 23 accounting).
func (c *Cache) Invalidate(block uint64) (Victim, bool) {
	i := c.find(block)
	if i < 0 {
		return Victim{}, false
	}
	v := c.victim(i)
	if rec := c.rec; rec.On() && c.kindCnt[v.Kind] <= 0 {
		rec.Failf("cache", "%s: invalidating %v block %#x with non-positive kind ledger %d", c.name, v.Kind, block, c.kindCnt[v.Kind])
	}
	c.kindCnt[v.Kind]--
	c.tags[i], c.stamps[i], c.flags[i] = 0, 0, 0
	return v, true
}

// Occupancy reports the number of valid lines (for tests).
func (c *Cache) Occupancy() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}
