// Package dram is the DDR4 timing model (Table I): per-channel read/write
// queues, banks with open rows, FR-FCFS-capped scheduling, a 500 ns
// open-page timeout policy, write draining (writebacks are deprioritised
// relative to reads, Fig 22), and periodic refresh. Requests complete via
// callback; per-traffic-kind queuing delays and bus-busy time feed Figs 15
// and 22.
package dram

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/inv"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TrafficKind classifies a DRAM request for the bandwidth/queuing-delay
// breakdowns of Figs 15 and 22.
type TrafficKind int

const (
	// TrafficData is a normal data block access.
	TrafficData TrafficKind = iota
	// TrafficCounter is a counter or tree block access.
	TrafficCounter
	// TrafficOverflowL0 is level-0 split-counter overflow re-encryption.
	TrafficOverflowL0
	// TrafficOverflowHi is level-1-and-above overflow re-encryption.
	TrafficOverflowHi
	numTrafficKinds
)

// String implements fmt.Stringer.
func (k TrafficKind) String() string {
	switch k {
	case TrafficData:
		return "data"
	case TrafficCounter:
		return "counter"
	case TrafficOverflowL0:
		return "overflow-l0"
	case TrafficOverflowHi:
		return "overflow-hi"
	}
	return fmt.Sprintf("TrafficKind(%d)", int(k))
}

// qdelayKeys and accessKeys map (traffic kind, direction) to the
// registered stats keys, so the hot path selects a key with two array
// indexes instead of formatting one per access. Index 0 is read, 1 write.
var (
	qdelayKeys = [numTrafficKinds][2]string{
		TrafficData:       {stats.DramQDelayDataRead, stats.DramQDelayDataWrite},
		TrafficCounter:    {stats.DramQDelayCtrRead, stats.DramQDelayCtrWrite},
		TrafficOverflowL0: {stats.DramQDelayOvfL0Read, stats.DramQDelayOvfL0Write},
		TrafficOverflowHi: {stats.DramQDelayOvfHiRead, stats.DramQDelayOvfHiWrite},
	}
	accessKeys = [numTrafficKinds][2]string{
		TrafficData:       {stats.DramAccessDataRead, stats.DramAccessDataWrite},
		TrafficCounter:    {stats.DramAccessCtrRead, stats.DramAccessCtrWrite},
		TrafficOverflowL0: {stats.DramAccessOvfL0Read, stats.DramAccessOvfL0Write},
		TrafficOverflowHi: {stats.DramAccessOvfHiRead, stats.DramAccessOvfHiWrite},
	}
)

// Request is one 64 B DRAM access. Callers may build one directly, or —
// on hot paths — obtain a pooled one from NewRequest, which the device
// recycles after the access completes.
type Request struct {
	Block uint64
	Write bool
	Kind  TrafficKind
	// Done is called when the access completes on the DRAM pins (data
	// available for reads, burst written for writes). May be nil.
	Done func(at sim.Time)
	// Obs, when non-nil, is the memory request's trace context: issue()
	// attributes the queue wait and bank service to it (internal/obs).
	Obs *obs.Req

	enqueued sim.Time
	finishAt sim.Time // completion time carried into the finish event
	owner    *DRAM    // non-nil for pooled requests (NewRequest)
	free     *Request // freelist link
	// dst is the accepted request's home channel, stamped by Enqueue so
	// the finish callback recovers it from the one event argument without
	// re-mapping.
	dst *channel
}

// DRAM is the multi-channel memory device.
type DRAM struct {
	eng    *sim.Engine
	st     *stats.Set
	rec    *inv.Recorder
	mapper *addr.DRAMMapper
	cfg    dramTiming
	chans  []*channel
	// freeReq pools Requests handed out by NewRequest.
	freeReq *Request
}

type dramTiming struct {
	tCL, tRCD, tRP sim.Time
	tRFC, tREFI    sim.Time
	burst          sim.Time
	rowTimeout     sim.Time
	readCap        int
	writeCap       int
	drainHigh      int
	drainLow       int
	frfcfsCap      int
}

// New builds the DRAM device from the system config.
func New(eng *sim.Engine, st *stats.Set, cfg *config.Config) *DRAM {
	m := addr.NewDRAMMapper(cfg.Channels, cfg.Ranks, cfg.BanksPerRank, cfg.RowBytes)
	d := &DRAM{
		eng:    eng,
		st:     st,
		rec:    eng.Recorder(),
		mapper: m,
		cfg: dramTiming{
			tCL: cfg.TCL, tRCD: cfg.TRCD, tRP: cfg.TRP,
			tRFC: cfg.TRFC, tREFI: cfg.TREFI,
			burst:      cfg.BurstLatency,
			rowTimeout: cfg.RowTimeout,
			readCap:    cfg.ReadQueueCap,
			writeCap:   cfg.WriteQueueCap,
			drainHigh:  int(float64(cfg.WriteQueueCap) * cfg.WriteDrainHigh),
			drainLow:   int(float64(cfg.WriteQueueCap) * cfg.WriteDrainLow),
			frfcfsCap:  cfg.FRFCFSCap,
		},
	}
	for i := 0; i < cfg.Channels; i++ {
		d.chans = append(d.chans, newChannel(d, i, m.BanksPerChannel()))
	}
	return d
}

// Mapper exposes the address-to-geometry mapping.
func (d *DRAM) Mapper() *addr.DRAMMapper { return d.mapper }

// NewRequest returns a pooled request. After a successful Enqueue the
// device owns it and recycles it once the access completes (after Done
// fires, or at issue when Done is nil). If Enqueue reports false the
// caller keeps ownership: retry Enqueue with the same request, or return
// it with Recycle.
func (d *DRAM) NewRequest(block uint64, write bool, kind TrafficKind, done func(at sim.Time), ob *obs.Req) *Request {
	r := d.freeReq
	if r == nil {
		r = &Request{owner: d}
	} else {
		d.freeReq = r.free
		r.free = nil
	}
	r.Block, r.Write, r.Kind, r.Done, r.Obs = block, write, kind, done, ob
	r.enqueued, r.finishAt = 0, 0
	return r
}

// Recycle returns an un-enqueued pooled request to the freelist. Only for
// requests from NewRequest whose Enqueue reported false and that the
// caller abandons.
func (d *DRAM) Recycle(r *Request) {
	if r.owner != d {
		return
	}
	r.Done, r.Obs = nil, nil
	r.free = d.freeReq
	d.freeReq = r
}

// QueuePressure reports the read-slot fill fraction of the block's home
// channel — the MC's overflow engine uses it to throttle re-encryption
// work (Sec. V) and the hierarchy uses it for backpressure. Pressure is
// judged by the outstanding-request count (accepted, not yet finished on
// the pins).
func (d *DRAM) QueuePressure(block uint64) float64 {
	ch := d.chans[d.mapper.Map(block).Channel]
	return float64(ch.occ[0]) / float64(d.cfg.readCap)
}

// Enqueue submits a request. It reports false when the target channel has
// no free slot; the caller must retry later (the MC models Sec. V's
// rejection of LLC requests during overflow pressure with this signal).
//
// Admission is judged against the channel's outstanding-request count: a
// slot is taken here and released by the finish event when the access
// completes on the pins.
func (d *DRAM) Enqueue(r *Request) bool {
	loc := d.mapper.Map(r.Block)
	ch := d.chans[loc.Channel]
	dir := 0
	cap := d.cfg.readCap
	if r.Write {
		dir, cap = 1, d.cfg.writeCap
	}
	if ch.occ[dir] >= cap {
		return false
	}
	ch.occ[dir]++
	r.dst = ch
	r.enqueued = d.eng.Now()
	if r.Write {
		ch.writeQ = append(ch.writeQ, r)
	} else {
		ch.readQ = append(ch.readQ, r)
	}
	ch.kick()
	return true
}

// dramFinishCB runs when an access completes on the pins: it releases the
// request's channel slot, recycles pooled requests, and delivers Done.
// Pooled requests recycle before Done runs, so the callback may
// immediately re-enqueue.
func dramFinishCB(x any) {
	r := x.(*Request)
	ch := r.dst
	dir := 0
	if r.Write {
		dir = 1
	}
	ch.occ[dir]--
	if rec := ch.d.rec; rec.On() && ch.occ[dir] < 0 {
		rec.Failf("dram", "ch%d outstanding count went negative (dir %d)", ch.id, dir)
	}
	done, at := r.Done, r.finishAt
	if d := r.owner; d != nil {
		d.Recycle(r)
	}
	if done != nil {
		done(at)
	}
}

// QueueDepths reports the total outstanding read and write requests
// across channels (accepted, not yet finished on the pins) — the tracer's
// periodic sampler plots these over time.
func (d *DRAM) QueueDepths() (reads, writes int) {
	for _, ch := range d.chans {
		reads += ch.occ[0]
		writes += ch.occ[1]
	}
	return reads, writes
}

// BusyFraction reports the fraction of simulated time [since, now] the
// channel data bus spent on each traffic kind (Fig 15), summed over
// channels and normalised by per-channel peak.
func (d *DRAM) BusyFraction(since, now sim.Time) map[TrafficKind]float64 {
	out := make(map[TrafficKind]float64, numTrafficKinds)
	window := float64(now-since) * float64(len(d.chans))
	if window <= 0 {
		return out
	}
	for _, ch := range d.chans {
		for k, t := range ch.busyTime {
			out[TrafficKind(k)] += float64(t) / window
		}
	}
	return out
}

// channel owns one data bus and a bank array.
type channel struct {
	d  *DRAM
	id int
	// occ counts accepted requests not yet finished on the pins ([read,
	// write]); Enqueue admits against it.
	occ     [2]int
	banks   []bank
	readQ   []*Request
	writeQ  []*Request
	busFree sim.Time
	// draining is the write-drain mode latch.
	draining bool
	// rowStreak counts consecutive row-hit issues for FR-FCFS capping.
	rowStreak   int
	streakBank  int
	nextRefresh sim.Time
	// pending marks whether a scheduler wakeup is already queued.
	pending  bool
	busyTime [numTrafficKinds]sim.Time
	hs       chanStats
}

// chanStats caches the stats cells issue() records into, replacing five
// map lookups per access with pointer bumps. Binding is lazy — at the
// first issue after construction — because the owning simulation may
// Reset the stats set at its warmup boundary (tsim does), which would
// strand cells bound any earlier; no DRAM traffic is issued during a
// functional warmup, so first-issue is always on the measured side.
type chanStats struct {
	bound                          bool
	rowHit, rowClosed, rowConflict *int64
	qdelay                         [numTrafficKinds][2]*stats.Accumulator
	qdhist                         [numTrafficKinds][2]*metrics.Hist
	access                         [numTrafficKinds][2]*int64
}

func (ch *channel) bindHot() {
	st := ch.d.st
	ch.hs.rowHit = st.CounterRef(stats.DramRowHit)
	ch.hs.rowClosed = st.CounterRef(stats.DramRowClosed)
	ch.hs.rowConflict = st.CounterRef(stats.DramRowConflict)
	for k := 0; k < int(numTrafficKinds); k++ {
		for dir := 0; dir < 2; dir++ {
			qname := qdelayKeys[k][dir]
			ch.hs.qdelay[k][dir] = st.AccumRef(qname)                //lint:dynamic-key selected from the registered qdelayKeys table
			ch.hs.qdhist[k][dir] = st.HistRef(qname)                 //lint:dynamic-key selected from the registered qdelayKeys table
			ch.hs.access[k][dir] = st.CounterRef(accessKeys[k][dir]) //lint:dynamic-key selected from the registered accessKeys table
		}
	}
	ch.hs.bound = true
}

type bank struct {
	openRow    uint64
	rowValid   bool
	lastAccess sim.Time
	freeAt     sim.Time
}

func newChannel(d *DRAM, id, banks int) *channel {
	return &channel{
		d:           d,
		id:          id,
		banks:       make([]bank, banks),
		nextRefresh: d.cfg.tREFI,
		streakBank:  -1,
	}
}

// kick ensures a scheduling pass is queued at time `at` (or now).
func (ch *channel) kick() { ch.kickAt(ch.d.eng.Now()) }

func (ch *channel) kickAt(at sim.Time) {
	if ch.pending {
		return
	}
	ch.pending = true
	if now := ch.d.eng.Now(); at < now {
		at = now
	}
	ch.d.eng.AtCall(at, channelScheduleCB, ch)
}

// channelScheduleCB is the prebound form of channel.schedule: taking the
// method value ch.schedule allocated once per wakeup.
func channelScheduleCB(x any) { x.(*channel).schedule() }

// schedule issues at most one request whose bank is ready, then re-arms.
// Banks overlap their ACT/CAS latencies; only the data-bus bursts
// serialise, so issuing one request per burst slot sustains the channel's
// peak bandwidth.
func (ch *channel) schedule() {
	ch.pending = false
	now := ch.d.eng.Now()
	// Lazy refresh: when the refresh deadline has passed, stall the
	// whole channel for tRFC.
	if now >= ch.nextRefresh {
		stallEnd := now + ch.d.cfg.tRFC
		if ch.busFree < stallEnd {
			ch.busFree = stallEnd
		}
		for i := range ch.banks {
			if ch.banks[i].freeAt < stallEnd {
				ch.banks[i].freeAt = stallEnd
			}
			ch.banks[i].rowValid = false // refresh closes rows
		}
		// Refreshes that fell due while the channel idled happened
		// without contention; charge one tRFC and catch the
		// schedule up so a long-idle channel does not stack stalls.
		for ch.nextRefresh <= now {
			ch.nextRefresh += ch.d.cfg.tREFI
		}
		ch.kickAt(stallEnd)
		return
	}

	q := ch.pickQueue()
	if q == nil {
		return // idle: Enqueue will kick us
	}
	idx, ready := ch.pickRequest(*q)
	if !ready {
		// Every queued request's bank is busy: wake when the earliest
		// frees (or the next refresh, whichever first).
		wake := ch.nextRefresh
		for _, r := range *q {
			loc := ch.d.mapper.Map(r.Block)
			if f := ch.banks[ch.d.mapper.BankID(loc)].freeAt; f < wake {
				wake = f
			}
		}
		ch.kickAt(wake)
		return
	}
	r := (*q)[idx]
	*q = append((*q)[:idx], (*q)[idx+1:]...)
	ch.issue(r)
	if len(ch.readQ) > 0 || len(ch.writeQ) > 0 {
		// One burst per slot caps the issue rate at peak bandwidth.
		ch.kickAt(now + ch.d.cfg.burst)
	}
}

// pickQueue applies the write-drain policy: serve reads unless the write
// queue is above the high watermark (enter drain) or reads are empty;
// leave drain below the low watermark.
func (ch *channel) pickQueue() *[]*Request {
	if ch.draining && len(ch.writeQ) <= ch.d.cfg.drainLow {
		ch.draining = false
	}
	if !ch.draining && len(ch.writeQ) >= ch.d.cfg.drainHigh {
		ch.draining = true
	}
	switch {
	case ch.draining && len(ch.writeQ) > 0:
		return &ch.writeQ
	case len(ch.readQ) > 0:
		return &ch.readQ
	case len(ch.writeQ) > 0:
		return &ch.writeQ
	}
	return nil
}

// pickRequest implements FR-FCFS-capped over bank-ready requests: first
// ready row hit, unless that bank's hit streak exceeded the cap; otherwise
// the oldest ready request. ready=false when every request's bank is busy.
func (ch *channel) pickRequest(q []*Request) (int, bool) {
	now := ch.d.eng.Now()
	oldest := -1
	for i, r := range q {
		loc := ch.d.mapper.Map(r.Block)
		bankID := ch.d.mapper.BankID(loc)
		b := &ch.banks[bankID]
		if b.freeAt > now {
			continue
		}
		if ch.rowHit(b, loc.Row, now) {
			if !(ch.streakBank == bankID && ch.rowStreak >= ch.d.cfg.frfcfsCap) {
				return i, true
			}
		}
		if oldest < 0 || r.enqueued < q[oldest].enqueued {
			oldest = i
		}
	}
	return oldest, oldest >= 0
}

func (ch *channel) rowHit(b *bank, row uint64, now sim.Time) bool {
	return b.rowValid && b.openRow == row && now-b.lastAccess <= ch.d.cfg.rowTimeout
}

// issue performs the access timing for one request.
func (ch *channel) issue(r *Request) {
	if !ch.hs.bound {
		ch.bindHot()
	}
	now := ch.d.eng.Now()
	loc := ch.d.mapper.Map(r.Block)
	bankID := ch.d.mapper.BankID(loc)
	b := &ch.banks[bankID]

	start := now
	var access sim.Time
	switch {
	case ch.rowHit(b, loc.Row, now):
		access = ch.d.cfg.tCL
		*ch.hs.rowHit++
		if ch.streakBank == bankID {
			ch.rowStreak++
		} else {
			ch.streakBank, ch.rowStreak = bankID, 1
		}
	case !b.rowValid || now-b.lastAccess > ch.d.cfg.rowTimeout:
		// Row closed by the timeout policy (or never opened):
		// activate + CAS.
		access = ch.d.cfg.tRCD + ch.d.cfg.tCL
		*ch.hs.rowClosed++
		ch.streakBank, ch.rowStreak = bankID, 0
	default:
		// Row conflict: precharge + activate + CAS.
		access = ch.d.cfg.tRP + ch.d.cfg.tRCD + ch.d.cfg.tCL
		*ch.hs.rowConflict++
		ch.streakBank, ch.rowStreak = bankID, 0
	}
	dataAt := start + access
	// The data bus serialises bursts across banks.
	if dataAt < ch.busFree {
		dataAt = ch.busFree
	}
	finish := dataAt + ch.d.cfg.burst

	if rec := ch.d.rec; rec.On() {
		if start < r.enqueued {
			rec.Failf("dram", "ch%d request issued at %d ps before its enqueue at %d ps", ch.id, start, r.enqueued)
		}
		if finish <= start {
			rec.Failf("dram", "ch%d access finishes at %d ps, not after its start at %d ps", ch.id, finish, start)
		}
		if finish < ch.busFree {
			rec.Failf("dram", "ch%d data bus moved backwards: finish %d ps < busFree %d ps", ch.id, finish, ch.busFree)
		}
		if finish < b.freeAt {
			rec.Failf("dram", "ch%d bank %d freeAt moved backwards: %d ps -> %d ps", ch.id, bankID, b.freeAt, finish)
		}
	}

	b.openRow, b.rowValid = loc.Row, true
	b.lastAccess = finish
	b.freeAt = finish
	ch.busFree = finish
	ch.busyTime[r.Kind] += ch.d.cfg.burst

	dir := 0
	if r.Write {
		dir = 1
	}
	// Whole-nanosecond queue delays keep accumulator sums exact in
	// float64 (integer-valued additions are associative).
	qdelay := float64(int64(start-r.enqueued) / 1000)
	ch.hs.qdelay[r.Kind][dir].Observe(qdelay)
	// Per-request delay distribution (shared internal/metrics geometry)
	// for the stochastic-dominance check and the flight recorder: means
	// can mask tail regressions, the CDF cannot.
	ch.hs.qdhist[r.Kind][dir].Observe(int64(start-r.enqueued) / 1000)
	*ch.hs.access[r.Kind][dir]++
	r.Obs.AddSpan(obs.SegDRAMQueue, r.enqueued, start)
	r.Obs.AddSpan(obs.SegDRAMService, start, finish)

	// One finish event per access: it releases the channel slot,
	// recycles, and delivers Done.
	r.finishAt = finish
	ch.d.eng.AtCall(finish, dramFinishCB, r)
}
