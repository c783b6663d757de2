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
				q.push(event{at: at, seq: seq, call: func(any) {}, arg: capturedID})
				heap.Push(&ref, legacyEvent{at: at, seq: seq, id: capturedID})
			} else {
				got := q.pop()
				want := heap.Pop(&ref).(legacyEvent)
				if got.at != want.at || got.seq != want.seq {
					t.Fatalf("seed %d op %d: popped (at=%d seq=%d), reference popped (at=%d seq=%d)",
						seed, op, got.at, got.seq, want.at, want.seq)
				}
			}
		}
		for q.len() > 0 {
			got := q.pop()
			want := heap.Pop(&ref).(legacyEvent)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d drain: popped (at=%d seq=%d), reference popped (at=%d seq=%d)",
					seed, got.at, got.seq, want.at, want.seq)
			}
		}
		if ref.Len() != 0 {
			t.Fatalf("seed %d: reference has %d events left after queue drained", seed, ref.Len())
		}
	}
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
				q.push(event{at: at, seq: seq})
			} else {
				e := q.pop()
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
	q.push(event{at: 1, seq: 1, call: tickCB, arg: &tickState{}})
	q.push(event{at: 2, seq: 2, call: tickCB, arg: &tickState{}})
	q.pop()
	q.pop()
	tail := q.ev[:2]
	for i, e := range tail {
		if e.call != nil || e.arg != nil {
			t.Fatalf("slot %d retains references after pop: %+v", i, e)
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
		e.step()
	}
}
