package tsim

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
)

// llcSlice is one LLC slice: a real tag-store shard on its own mesh tile,
// holding its share of the total sets (cache.SplitSets — the same split
// fsim uses, so the functional and timing LLC contents stay comparable).
// A miss pays only the tag lookup while a hit pays tag + data, the 'L'
// effect of Fig 13.
type llcSlice struct {
	s    *Sim
	idx  int
	tile noc.NodeID
	c    *cache.Cache

	tagLat     sim.Time
	dataLat    sim.Time
	payloadPen sim.Time // 'M' of Fig 13: transmitting counter payloads

	// Prebound handlers for packed-payload messages arriving at this
	// slice (bound once at construction; see the handle* methods).
	insertDataCB func(any)
	insertMetaCB func(any)
	metaProbeCB  func(any)
}

// buildSlices constructs every LLC slice. The slice count is the mesh's
// core-tile count.
func (s *Sim) buildSlices() {
	n := s.mesh.CoreTiles()
	totalSets := uint64(s.cfg.L3Bytes/addr.BlockBytes) / uint64(s.cfg.L3Ways)
	split := cache.SplitSets(totalSets, n)
	s.slices = make([]*llcSlice, n)
	for j := 0; j < n; j++ {
		g := &llcSlice{
			s:          s,
			idx:        j,
			tile:       s.mesh.CoreTile(j),
			c:          cache.NewSets(fmt.Sprintf("llc.%d", j), split[j], s.cfg.L3Ways),
			tagLat:     s.cfg.L3TagLatency,
			dataLat:    s.cfg.L3DataLatency,
			payloadPen: sim.NS(1),
		}
		g.c.SetRecorder(s.ivr)
		g.insertDataCB = g.handleInsertData
		g.insertMetaCB = g.handleInsertMeta
		g.metaProbeCB = g.handleMetaProbe
		s.slices[j] = g
	}
}

// dataAccess serves an L2 data miss arriving at its home slice.
func (g *llcSlice) dataAccess(req *readReq) {
	s := g.s
	t := s.eng.Now()
	*s.hs.llcDataAccess++
	if g.c.Lookup(req.block) {
		// On-chip data is already decrypted and verified.
		req.tr.AddSpan(obs.SegLLCProbe, t, t+g.tagLat+g.dataLat)
		arr := t + g.tagLat + g.dataLat + s.oneway(g.tile, req.l2.tile)
		req.tr.AddSpan(obs.SegNoCResp, t+g.tagLat+g.dataLat, arr)
		s.schedReq(arr, completePlainLocalCB, req)
		return
	}
	*s.hs.llcDataMiss++
	req.tr.MarkLLCMiss()
	req.tr.AddSpan(obs.SegLLCProbe, t, t+g.tagLat)
	if s.cfg.EMCC {
		// Tell the requesting L2 its data access missed here: the miss
		// note marks the L2's counter copy useful (Fig 11) and sets the
		// request's llcMissed bit — state only the owning L2 may touch.
		s.schedReq(t+g.tagLat+s.oneway(g.tile, req.l2.tile), llcMissNoteCB, req)
	}
	mcTile := s.mesh.MCTile(s.mesh.MCOf(req.block))
	req.tr.AddSpan(obs.SegNoCToMC, t+g.tagLat, t+g.tagLat+s.oneway(g.tile, mcTile))
	s.schedReq(t+g.tagLat+s.oneway(g.tile, mcTile), mcDataReadConfCB, req)
}

// counterAccessFromL2 serves EMCC's speculative parallel counter fetch.
// Beyond the aggregate tsim/ctr-llc-* counters (shared with the MC path
// below), the probe keeps its own tsim/ctr-spec-llc-* classification: fsim's
// speculative probe is the only LLC counter access its EMCC model performs,
// so the differential harness compares it against this split, not the
// aggregate.
func (g *llcSlice) counterAccessFromL2(req *readReq, cb uint64) {
	s := g.s
	t := s.eng.Now()
	*s.hs.ctrLLCLookup++
	*s.hs.ctrSpecLLCLookup++
	if g.c.Lookup(cb) {
		*s.hs.ctrLLCHit++
		*s.hs.ctrSpecLLCHit++
		req.tr.MarkCtr(obs.CtrAtLLC)
		arr := t + g.tagLat + g.dataLat + g.payloadPen + s.oneway(g.tile, req.l2.tile)
		s.schedReq(arr, counterArrivedCB, req)
		return
	}
	*s.hs.ctrLLCMiss++
	*s.hs.ctrSpecLLCMiss++
	mcTile := s.mesh.MCTile(s.mesh.MCOf(cb))
	s.schedReq(t+g.tagLat+s.oneway(g.tile, mcTile), counterMissCB, req)
}

// handleMetaProbe serves the baseline MC counter path: the MC, having
// missed its private counter cache, probes the home slice (serially after
// the data miss, Sec. III-B) and the slice replies with a packed
// mb<<1|hit verdict (mcCtl.metaProbeDone).
func (g *llcSlice) handleMetaProbe(a any) {
	s := g.s
	mb := s.unbox(a)
	t := s.eng.Now()
	*s.hs.ctrLLCLookup++
	mcTile := s.mesh.MCTile(s.mesh.MCOf(mb))
	if g.c.Lookup(mb) {
		*s.hs.ctrLLCHit++
		arr := t + g.tagLat + g.dataLat + g.payloadPen + s.oneway(g.tile, mcTile)
		s.atCall(arr, s.mc.metaProbeDoneCB, s.box(mb<<1|1))
		return
	}
	*s.hs.ctrLLCMiss++
	s.atCall(t+g.tagLat+s.oneway(g.tile, mcTile), s.mc.metaProbeDoneCB, s.box(mb<<1))
}

// handleInsertData unpacks an L2 data-victim spill (block<<1|dirty).
func (g *llcSlice) handleInsertData(a any) {
	p := g.s.unbox(a)
	g.insert(p>>1, p&1 != 0, addr.KindData)
}

// handleInsertMeta unpacks a metadata insert from the MC
// (block<<8 | kind<<1 | dirty).
func (g *llcSlice) handleInsertMeta(a any) {
	p := g.s.unbox(a)
	g.insert(p>>8, p&1 != 0, addr.Kind(p>>1&0x7f))
}

// insert places a block in the slice (L2 victims, counter copies). A
// displaced dirty block travels to the MC as a writeback message — except
// during functional warmup, when the whole path runs synchronously.
func (g *llcSlice) insert(block uint64, dirty bool, kind addr.Kind) {
	v, ok := g.c.Insert(block, dirty, kind)
	if !ok || !v.Dirty {
		return
	}
	s := g.s
	if s.warming {
		if v.Kind == addr.KindData {
			s.mc.writebackData(v.Block)
		} else {
			s.mc.writebackMeta(v.Block)
		}
		return
	}
	cb := s.mc.wbDataCB
	if v.Kind != addr.KindData {
		cb = s.mc.wbMetaCB
	}
	mcTile := s.mesh.MCTile(s.mesh.MCOf(v.Block))
	s.atCall(s.eng.Now()+s.oneway(g.tile, mcTile), cb, s.box(v.Block))
}
