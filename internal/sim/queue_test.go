package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"unsafe"
)

// ---- container/heap reference (the pre-overhaul scheduler) ----
//
// legacyHeap replicates the original binary-heap scheduler exactly: the
// same (at, seq) Less and the container/heap sift algorithms. The parity
// tests below drive it and the four-ary queue with identical schedules
// and require identical pop orders.

type legacyEvent struct {
	at  Time
	seq uint64
	id  int
}

type legacyHeap []legacyEvent

func (h legacyHeap) Len() int { return len(h) }
func (h legacyHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h legacyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *legacyHeap) Push(x interface{}) { *h = append(*h, x.(legacyEvent)) }
func (h *legacyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestQueueParityWithLegacyHeap drives randomized interleavings of pushes
// and pops through the four-ary queue and the container/heap reference
// and requires byte-identical pop sequences — the determinism guarantee
// the scheduler swap must preserve.
func TestQueueParityWithLegacyHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var ref legacyHeap
		var seq uint64
		id := 0
		for op := 0; op < 4000; op++ {
			if q.len() == 0 || rng.Intn(3) != 0 {
				// Push with a small time range so equal timestamps are
				// common and the seq tie-break is exercised hard.
				at := Time(rng.Intn(50))
				seq++
				id++
				capturedID := id
				q.push(at, seq, nil, seq)
				heap.Push(&ref, legacyEvent{at: at, seq: seq, id: capturedID})
			} else {
				gotAt, gotSeq := popSeq(&q)
				want := heap.Pop(&ref).(legacyEvent)
				if gotAt != want.at || gotSeq != want.seq {
					t.Fatalf("seed %d op %d: popped (at=%d seq=%d), reference popped (at=%d seq=%d)",
						seed, op, gotAt, gotSeq, want.at, want.seq)
				}
			}
		}
		for q.len() > 0 {
			gotAt, gotSeq := popSeq(&q)
			want := heap.Pop(&ref).(legacyEvent)
			if gotAt != want.at || gotSeq != want.seq {
				t.Fatalf("seed %d drain: popped (at=%d seq=%d), reference popped (at=%d seq=%d)",
					seed, gotAt, gotSeq, want.at, want.seq)
			}
		}
		if ref.Len() != 0 {
			t.Fatalf("seed %d: reference has %d events left after queue drained", seed, ref.Len())
		}
	}
}

// popSeq pops q's minimum event; the queue tests push each event with its
// seq as the argument, so the pop order can be checked by seq.
func popSeq(q *eventQueue) (Time, uint64) {
	at, _, arg := q.pop()
	return at, arg.(uint64)
}

// TestQueueFIFOAmongEqualTimestamps is the direct property: across
// randomized insert/pop interleavings, events sharing a timestamp pop in
// insertion order.
func TestQueueFIFOAmongEqualTimestamps(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var seq uint64
		lastSeqAt := map[Time]uint64{}
		var lastTime Time
		first := true
		for op := 0; op < 3000; op++ {
			if q.len() == 0 || rng.Intn(3) != 0 {
				// Engine contract: never schedule before the clock. A
				// tiny offset range forces heavy timestamp ties.
				at := lastTime + Time(rng.Intn(8))
				seq++
				q.push(at, seq, nil, seq)
			} else {
				var e legacyEvent
				e.at, e.seq = popSeq(&q)
				if !first && e.at < lastTime {
					t.Fatalf("seed %d: time went backwards: %d after %d", seed, e.at, lastTime)
				}
				if prev, ok := lastSeqAt[e.at]; ok && e.seq <= prev {
					t.Fatalf("seed %d: tie-break not FIFO at t=%d: seq %d popped after %d", seed, e.at, e.seq, prev)
				}
				if e.at != lastTime {
					// A new timestamp opens a fresh FIFO window; older
					// windows can never be revisited.
					delete(lastSeqAt, lastTime)
				}
				lastSeqAt[e.at] = e.seq
				lastTime, first = e.at, false
			}
		}
	}
}

// TestEngineParityOldVsNew runs a randomized self-scheduling workload on
// the new engine and on a reference engine built over container/heap, and
// requires identical execution traces (time and event identity at every
// step). Events re-schedule follow-ups from inside callbacks, so the
// parity covers the engine loop, not just the queue.
func TestEngineParityOldVsNew(t *testing.T) {
	type rec struct {
		at Time
		id int
	}
	run := func(seed int64, useLegacy bool) []rec {
		var trace []rec
		rng := rand.New(rand.NewSource(seed))
		if useLegacy {
			var h legacyHeap
			var seq uint64
			now := Time(0)
			id := 0
			schedule := func(at Time) {
				seq++
				id++
				heap.Push(&h, legacyEvent{at: at, seq: seq, id: id})
			}
			for i := 0; i < 30; i++ {
				schedule(Time(rng.Intn(20)))
			}
			for h.Len() > 0 {
				e := heap.Pop(&h).(legacyEvent)
				now = e.at
				trace = append(trace, rec{e.at, e.id})
				if len(trace) < 3000 {
					for n := rng.Intn(3); n > 0; n-- {
						schedule(now + Time(rng.Intn(10)))
					}
				}
			}
			return trace
		}
		e := New()
		id := 0
		var schedule func(at Time)
		schedule = func(at Time) {
			id++
			capturedID := id
			e.At(at, func() {
				trace = append(trace, rec{e.Now(), capturedID})
				if len(trace) < 3000 {
					for n := rng.Intn(3); n > 0; n-- {
						schedule(e.Now() + Time(rng.Intn(10)))
					}
				}
			})
		}
		for i := 0; i < 30; i++ {
			schedule(Time(rng.Intn(20)))
		}
		e.Run()
		return trace
	}
	for seed := int64(1); seed <= 10; seed++ {
		oldTrace := run(seed, true)
		newTrace := run(seed, false)
		if len(oldTrace) != len(newTrace) {
			t.Fatalf("seed %d: %d events on legacy, %d on new", seed, len(oldTrace), len(newTrace))
		}
		for i := range oldTrace {
			if oldTrace[i] != newTrace[i] {
				t.Fatalf("seed %d step %d: legacy ran (at=%d id=%d), new ran (at=%d id=%d)",
					seed, i, oldTrace[i].at, oldTrace[i].id, newTrace[i].at, newTrace[i].id)
			}
		}
	}
}

// legacyEngine is the reference scheduler for the lane parity test: every
// event, whatever its delay, goes through the container/heap reference, so
// its run order is (at, seq) by construction. Every and RunUntil follow the
// Engine's documented semantics.
type legacyEngine struct {
	h     legacyHeap
	now   Time
	seq   uint64
	ticks int
	fns   map[uint64]func()
}

func (l *legacyEngine) Now() Time    { return l.now }
func (l *legacyEngine) Pending() int { return l.h.Len() }

func (l *legacyEngine) At(t Time, fn func()) {
	if t < l.now {
		panic("legacy: event scheduled in the past")
	}
	l.seq++
	l.fns[l.seq] = fn
	heap.Push(&l.h, legacyEvent{at: t, seq: l.seq})
}

func (l *legacyEngine) Every(period Time, fn func(now Time)) {
	var tick func()
	tick = func() {
		l.ticks--
		fn(l.now)
		if l.Pending() > l.ticks {
			l.ticks++
			l.At(l.now+period, tick)
		}
	}
	l.ticks++
	l.At(l.now+period, tick)
}

func (l *legacyEngine) RunUntil(t Time) {
	for l.h.Len() > 0 && l.h[0].at <= t {
		ev := heap.Pop(&l.h).(legacyEvent)
		l.now = ev.at
		fn := l.fns[ev.seq]
		delete(l.fns, ev.seq)
		fn()
	}
	if l.now < t {
		l.now = t
	}
}

func (l *legacyEngine) RunFor(d Time) { l.RunUntil(l.now + d) }
func (l *legacyEngine) Run()          { l.RunUntil(maxTime) }

// scheduler is the surface the lane parity workload drives; *Engine and
// *legacyEngine both provide it.
type scheduler interface {
	Now() Time
	Pending() int
	At(t Time, fn func())
	Every(period Time, fn func(now Time))
	RunUntil(t Time)
	RunFor(d Time)
	Run()
}

// TestLaneParityWithLegacyHeap drives the engine, whose zero-delay events
// go through the now-lane, and the all-heap reference with one randomized
// workload, and requires identical (at, id, pending) traces step by step.
// Half of all pushes are zero-delay; positive delays are short, so heap
// events stamped now regularly coexist with lane events, and running the
// lane first would reorder them. The workload also schedules from outside
// Run between RunUntil/RunFor calls, and two Every tickers run throughout.
func TestLaneParityWithLegacyHeap(t *testing.T) {
	type rec struct {
		at      Time
		id      int
		pending int
	}
	run := func(seed int64, s scheduler) (trace []rec, pushes, zero int) {
		rng := rand.New(rand.NewSource(seed))
		id := 0
		var schedule func(d Time)
		schedule = func(d Time) {
			pushes++
			if d == 0 {
				zero++
			}
			id++
			me := id
			s.At(s.Now()+d, func() {
				trace = append(trace, rec{s.Now(), me, s.Pending()})
				if len(trace) < 4000 {
					for n := rng.Intn(3); n > 0; n-- {
						schedule(randDelay(rng))
					}
				}
			})
		}
		s.Every(7, func(now Time) { trace = append(trace, rec{now, -1, s.Pending()}) })
		s.Every(13, func(now Time) { trace = append(trace, rec{now, -2, s.Pending()}) })
		for round := 0; round < 60; round++ {
			for n := rng.Intn(4); n > 0; n-- {
				schedule(randDelay(rng))
			}
			trace = append(trace, rec{s.Now(), 0, s.Pending()}) // marks the outside call
			// A negative d asks for a time already passed: nothing may
			// run, not even the zero-delay events just scheduled.
			if d := Time(rng.Intn(25) - 3); round%2 == 0 {
				s.RunFor(d)
			} else {
				s.RunUntil(s.Now() + d)
			}
		}
		s.Run()
		if s.Pending() != 0 {
			t.Fatalf("seed %d: %d events pending after Run", seed, s.Pending())
		}
		return trace, pushes, zero
	}
	for seed := int64(1); seed <= 20; seed++ {
		want, _, _ := run(seed, &legacyEngine{fns: map[uint64]func(){}})
		got, pushes, zero := run(seed, New())
		if 10*zero < 4*pushes {
			t.Fatalf("seed %d: only %d of %d pushes are zero-delay, want >= 40%%", seed, zero, pushes)
		}
		for i := range want {
			if i >= len(got) {
				t.Fatalf("seed %d: engine stopped after %d steps, reference ran %d", seed, len(got), len(want))
			}
			if got[i] != want[i] {
				t.Fatalf("seed %d step %d: engine ran %+v, reference ran %+v", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: engine ran %d steps, reference ran %d", seed, len(got), len(want))
		}
	}
}

// randDelay is the lane parity workload's delay mix: zero half the time,
// otherwise 1..20 ps, so timestamps collide often.
func randDelay(rng *rand.Rand) Time {
	if rng.Intn(2) == 0 {
		return 0
	}
	return Time(1 + rng.Intn(20))
}

// tickState is the prebound-callback workload for the allocation tests.
type tickState struct {
	eng  *Engine
	n    int
	left int
}

func tickCB(x any) {
	s := x.(*tickState)
	s.n++
	if s.left > 0 {
		s.left--
		s.eng.AfterCall(100, tickCB, s)
	}
}

// TestAtCallZeroAllocsSteadyState pins the tentpole invariant: a
// steady-state scheduled event through the prebound API — schedule, pop,
// dispatch — allocates nothing once the queue's backing array has reached
// its high-water mark.
func TestAtCallZeroAllocsSteadyState(t *testing.T) {
	e := New()
	s := &tickState{eng: e}
	// Warm the queue's backing array past any growth.
	for i := 0; i < 256; i++ {
		e.AtCall(e.Now()+Time(i), tickCB, s)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.AtCall(e.Now()+10, tickCB, s)
		e.RunFor(10)
	})
	if allocs != 0 {
		t.Fatalf("steady-state AtCall event allocated %.1f times, want 0", allocs)
	}
}

// TestSelfReschedulingTickZeroAllocs covers the recurring-event shape the
// simulators use (an event that re-arms itself from inside its callback):
// the whole chain must be allocation-free.
func TestSelfReschedulingTickZeroAllocs(t *testing.T) {
	e := New()
	s := &tickState{eng: e}
	s.left = 64
	e.AfterCall(100, tickCB, s)
	e.Run() // warm
	allocs := testing.AllocsPerRun(100, func() {
		s.left = 50
		e.AfterCall(100, tickCB, s)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("self-rescheduling tick chain allocated %.1f times per run, want 0", allocs)
	}
}

// zeroTickCB re-arms s at zero delay while s.left lasts.
func zeroTickCB(x any) {
	s := x.(*tickState)
	s.n++
	if s.left > 0 {
		s.left--
		s.eng.AfterCall(0, zeroTickCB, s)
	}
}

// TestZeroDelayChainZeroAllocs pins the now-lane's steady state: a
// self-re-arming AfterCall(0, …) chain runs entirely from the lane (the
// heap's backing array is never touched) and allocates nothing once the
// lane has reached its high-water mark.
func TestZeroDelayChainZeroAllocs(t *testing.T) {
	e := New()
	s := &tickState{eng: e, left: 64}
	e.AfterCall(0, zeroTickCB, s)
	e.Run() // warm
	allocs := testing.AllocsPerRun(100, func() {
		s.left = 50
		e.AfterCall(0, zeroTickCB, s)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("zero-delay chain allocated %.1f times per run, want 0", allocs)
	}
	if cap(e.q.ev) != 0 {
		t.Fatalf("zero-delay chain used the heap (cap %d), want the lane only", cap(e.q.ev))
	}
	if e.Now() != 0 {
		t.Fatalf("zero-delay chain moved the clock to %d", e.Now())
	}
}

// TestAtCallRejectsPast mirrors the At contract for the prebound form.
func TestAtCallRejectsPast(t *testing.T) {
	e := New()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("AtCall in the past did not panic")
			}
		}()
		e.AtCall(50, tickCB, nil)
	})
	e.Run()
}

// TestPopReleasesReferences checks the queue zeroes vacated slots so the
// backing array does not pin callbacks or args after execution.
func TestPopReleasesReferences(t *testing.T) {
	var q eventQueue
	q.push(1, 1, tickCB, &tickState{})
	q.push(2, 2, tickCB, &tickState{})
	q.pop()
	q.pop()
	tail := q.ev[:2]
	for i, e := range tail {
		if e.call != nil || e.arg != nil {
			t.Fatalf("slot %d retains references after pop: %+v", i, e)
		}
	}
}

// TestLaneReleasesReferences is TestPopReleasesReferences for the
// now-lane: drained lane slots keep no callback or argument.
func TestLaneReleasesReferences(t *testing.T) {
	e := New()
	e.AtCall(0, tickCB, &tickState{})
	e.AtCall(0, tickCB, &tickState{})
	e.Run()
	if e.Pending() != 0 || len(e.lane) != 0 {
		t.Fatalf("lane not drained: pending %d, len %d", e.Pending(), len(e.lane))
	}
	for i, ev := range e.lane[:2] {
		if ev.call != nil || ev.arg != nil {
			t.Fatalf("lane slot %d retains references after running: %+v", i, ev)
		}
	}
}

// TestEventSize pins the event to (at, seq) plus the one callback form,
// call(arg): 40 B on 64-bit hosts. The heap moves events by value on every
// sift, so a second callback field would cost on every push and pop.
func TestEventSize(t *testing.T) {
	var call func(any)
	var arg any
	want := unsafe.Sizeof(Time(0)) + unsafe.Sizeof(uint64(0)) + unsafe.Sizeof(call) + unsafe.Sizeof(arg)
	if got := unsafe.Sizeof(event{}); got != want {
		t.Fatalf("event is %d bytes, want %d", got, want)
	}
}

// ---- Benchmarks: the numbers recorded in BENCH_5.json ----

// BenchmarkEngineTickPrebound is the post-overhaul hot path: a
// self-rescheduling prebound tick. Compare against
// BenchmarkEngineTickClosure and the legacy container/heap numbers in
// BENCH_5.json.
func BenchmarkEngineTickPrebound(b *testing.B) {
	b.ReportAllocs()
	e := New()
	s := &tickState{eng: e, left: b.N}
	e.AfterCall(100, tickCB, s)
	e.Run()
}

// BenchmarkEngineTickClosure is the convenience-API equivalent, paying one
// closure allocation per event.
func BenchmarkEngineTickClosure(b *testing.B) {
	b.ReportAllocs()
	e := New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(100, tick)
		}
	}
	e.After(100, tick)
	e.Run()
}

// BenchmarkEngineMixedQueue stresses the heap itself: a rolling window of
// 1024 pending events with randomized offsets, so every push sifts
// against a realistically full queue.
func BenchmarkEngineMixedQueue(b *testing.B) {
	b.ReportAllocs()
	e := New()
	s := &tickState{eng: e}
	r := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 1024; i++ {
		r = r*6364136223846793005 + 1
		e.AtCall(Time(r%4096), tickCB, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = r*6364136223846793005 + 1
		e.AtCall(e.Now()+Time(r%4096)+1, tickCB, s)
		e.step(maxTime)
	}
}

// mixState is one chain of BenchmarkEngineZeroDelayMix.
type mixState struct {
	eng  *Engine
	r    uint64
	left *int
}

// mixCB re-arms its chain at zero delay or at a short positive delay
// (1..64 ps), each half the time.
func mixCB(x any) {
	s := x.(*mixState)
	if *s.left <= 0 {
		return
	}
	*s.left--
	s.r = s.r*6364136223846793005 + 1442695040888963407
	d := Time(0)
	if s.r>>63 != 0 {
		d = Time(s.r>>32%64) + 1
	}
	s.eng.AfterCall(d, mixCB, s)
}

// BenchmarkEngineZeroDelayMix is the tsim-resident event mix: four
// chains, one per simulated core, re-arming about half the time at zero
// delay (a core stepping again after a completion) and otherwise a few
// picoseconds ahead. One op is one event.
func BenchmarkEngineZeroDelayMix(b *testing.B) {
	b.ReportAllocs()
	e := New()
	left := b.N
	for i := 0; i < 4; i++ {
		e.AtCall(0, mixCB, &mixState{eng: e, r: uint64(i + 1), left: &left})
	}
	e.Run()
}
