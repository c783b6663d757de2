// Package addr defines the simulated physical address map. DRAM holds three
// kinds of 64 B blocks: application data, counter blocks, and integrity-tree
// nodes (counters-of-counters). Per-block MACs are co-located with data
// (Sec. V) and therefore need no address space or traffic of their own.
//
// Layout (block-granular, low to high):
//
//	[0, dataBlocks)                       data
//	[ctrBase, ctrBase+ctrBlocks)          level-0 counter blocks
//	[treeBase[1], ...)                    level-1 tree nodes, then level 2, …
//
// Each level-k node covers `coverage` level-(k-1) blocks, mirroring how
// split-counter designs scale tree arity with counter-block coverage
// (Sec. II "Improving Counter Hit Rate").
package addr

import "fmt"

// BlockShift is log2 of the 64 B block size.
const BlockShift = 6

// BlockBytes is the block size in bytes.
const BlockBytes = 1 << BlockShift

// Kind classifies a physical block.
type Kind int

const (
	// KindData is an application data block.
	KindData Kind = iota
	// KindCounter is a level-0 counter block (protects data).
	KindCounter
	// KindTree is an integrity-tree node (level >= 1).
	KindTree
	// NumKinds is the number of block kinds: Kind values index
	// [NumKinds]-sized tables.
	NumKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindCounter:
		return "counter"
	case KindTree:
		return "tree"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Space is the physical address map for one secure-memory domain.
type Space struct {
	dataBlocks uint64
	coverage   uint64
	// levelBase[k] is the block index of the first level-k metadata
	// block; levelBase[0] is the counter region. levelCount[k] is the
	// number of blocks at that level. The last level has exactly one
	// block: the tree root (pinned on-chip, never fetched).
	levelBase  []uint64
	levelCount []uint64
	totalBlks  uint64
}

// NewSpace builds the map for dataBytes of protected memory with the given
// counter coverage (data blocks per counter block). coverage == 0 builds a
// data-only space (non-secure configuration).
func NewSpace(dataBytes int64, coverage int) *Space {
	if dataBytes <= 0 || dataBytes%BlockBytes != 0 {
		panic(fmt.Sprintf("addr: dataBytes must be a positive multiple of %d, got %d", BlockBytes, dataBytes))
	}
	s := &Space{dataBlocks: uint64(dataBytes) / BlockBytes}
	if coverage <= 0 {
		s.totalBlks = s.dataBlocks
		return s
	}
	s.coverage = uint64(coverage)
	next := s.dataBlocks
	count := s.dataBlocks
	for {
		count = (count + s.coverage - 1) / s.coverage
		s.levelBase = append(s.levelBase, next)
		s.levelCount = append(s.levelCount, count)
		next += count
		if count <= 1 {
			break
		}
	}
	s.totalBlks = next
	return s
}

// DataBlocks reports the number of data blocks.
func (s *Space) DataBlocks() uint64 { return s.dataBlocks }

// TotalBlocks reports data + metadata blocks.
func (s *Space) TotalBlocks() uint64 { return s.totalBlks }

// Levels reports the number of metadata levels including the root
// (0 for a non-secure space).
func (s *Space) Levels() int { return len(s.levelBase) }

// BlockOf converts a byte address to a block index.
func BlockOf(byteAddr uint64) uint64 { return byteAddr >> BlockShift }

// AddrOf converts a block index to its base byte address.
func AddrOf(block uint64) uint64 { return block << BlockShift }

// Kind classifies a block index.
func (s *Space) Kind(block uint64) Kind {
	switch {
	case block < s.dataBlocks:
		return KindData
	case len(s.levelBase) > 0 && block < s.levelBase[0]+s.levelCount[0]:
		return KindCounter
	default:
		return KindTree
	}
}

// Level reports the metadata level of a block: -1 for data, 0 for counter
// blocks, 1+ for tree nodes.
func (s *Space) Level(block uint64) int {
	if block < s.dataBlocks {
		return -1
	}
	for k := range s.levelBase {
		if block < s.levelBase[k]+s.levelCount[k] {
			return k
		}
	}
	panic(fmt.Sprintf("addr: block %#x outside space", block))
}

// CounterBlockOf reports the level-0 counter block protecting a data block.
func (s *Space) CounterBlockOf(dataBlock uint64) uint64 {
	if dataBlock >= s.dataBlocks {
		panic(fmt.Sprintf("addr: %#x is not a data block", dataBlock))
	}
	if s.coverage == 0 {
		panic("addr: space has no counters")
	}
	return s.levelBase[0] + dataBlock/s.coverage
}

// ParentOf reports the metadata block protecting the given block, and false
// when the block is the tree root (which is protected by on-chip state).
// Works for data blocks (returns the counter block) and metadata blocks
// (returns the next tree level).
func (s *Space) ParentOf(block uint64) (uint64, bool) {
	lvl := s.Level(block)
	if lvl == -1 {
		return s.CounterBlockOf(block), true
	}
	if lvl+1 >= len(s.levelBase) {
		return 0, false // root
	}
	idx := block - s.levelBase[lvl]
	return s.levelBase[lvl+1] + idx/s.coverage, true
}

// Ancestors returns the chain of metadata blocks protecting the given block,
// nearest first, excluding the block itself, up to and including the root.
func (s *Space) Ancestors(block uint64) []uint64 {
	var out []uint64
	cur := block
	for {
		p, ok := s.ParentOf(cur)
		if !ok {
			return out
		}
		out = append(out, p)
		cur = p
	}
}

// CoveredRange reports the range [first, first+n) of child blocks a
// metadata block protects: data blocks for a level-0 counter block, lower
// tree level otherwise. Used to size overflow re-encryption work.
func (s *Space) CoveredRange(metaBlock uint64) (first uint64, n uint64) {
	lvl := s.Level(metaBlock)
	if lvl < 0 {
		panic("addr: CoveredRange of a data block")
	}
	idx := metaBlock - s.levelBase[lvl]
	if lvl == 0 {
		first = idx * s.coverage
		n = s.coverage
		if first+n > s.dataBlocks {
			n = s.dataBlocks - first
		}
		return first, n
	}
	childBase := s.levelBase[lvl-1]
	childCount := s.levelCount[lvl-1]
	first = childBase + idx*s.coverage
	n = s.coverage
	if idx*s.coverage+n > childCount {
		n = childCount - idx*s.coverage
	}
	return first, n
}
