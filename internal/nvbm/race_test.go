package nvbm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentDisjointWritersRacingGrow exercises the concurrency
// contract the parallel solve paths rely on: writers touching DISJOINT
// ranges run concurrently with each other and with Grow, and afterwards
// the data, the wear counters, and the access accounting are all exact.
// Run with -race; the whole point of the test is the detector.
func TestConcurrentDisjointWritersRacingGrow(t *testing.T) {
	const (
		workers       = 4
		linesPer      = 2
		region        = linesPer * LineSize
		writesEach    = 200
		initialSize   = workers * region
		finalSize     = 8 * initialSize
		growIncrement = initialSize
	)
	d := New(NVBM, initialSize)

	var wg sync.WaitGroup
	wg.Add(workers + 1)
	// Grower: repeatedly extends the device while writes are in flight.
	go func() {
		defer wg.Done()
		for size := initialSize; size <= finalSize; size += growIncrement {
			d.Grow(size)
		}
	}()
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte(w + 1)}, region)
			off := w * region
			for k := 0; k < writesEach; k++ {
				d.WriteAt(off, buf)
				got := make([]byte, region)
				d.ReadAt(off, got)
				if !bytes.Equal(got, buf) {
					t.Errorf("worker %d: read back wrong data", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if d.Size() != finalSize {
		t.Fatalf("size = %d, want %d", d.Size(), finalSize)
	}
	// Every write bumped exactly its own lines: no increment may be lost
	// to a Grow swapping the wear slice mid-write.
	ws := d.Wear()
	if want := uint64(workers * writesEach * linesPer); ws.TotalWear != want {
		t.Errorf("total wear = %d, want %d", ws.TotalWear, want)
	}
	if ws.MaxWear != writesEach {
		t.Errorf("max wear = %d, want %d", ws.MaxWear, writesEach)
	}
	for w := 0; w < workers; w++ {
		off := w * region
		if got := d.WearMax(off, off+region); got != writesEach {
			t.Errorf("worker %d region wear = %d, want %d", w, got, writesEach)
		}
	}
	st := d.Stats()
	if want := uint64(workers * writesEach); st.Writes != want {
		t.Errorf("writes = %d, want %d", st.Writes, want)
	}
	if want := uint64(workers * writesEach * region); st.WriteBytes != want {
		t.Errorf("write bytes = %d, want %d", st.WriteBytes, want)
	}
	if want := uint64(workers * writesEach); st.Reads != want {
		t.Errorf("reads = %d, want %d", st.Reads, want)
	}
}

// TestConcurrentTornWritersRacingGrow arms a torn power cut under
// line-disjoint concurrent writers with media tracking and a wear limit
// active, while Grow extends the device — the full slow-path machinery
// (per-line stores, CRC shadow, tear-on-cut) under the race detector.
// Exactly the armed number of writes land whole; exactly one racing
// writer tears; no line is ever half old, half new.
func TestConcurrentTornWritersRacingGrow(t *testing.T) {
	const (
		workers  = 4
		linesPer = 2
		region   = linesPer * LineSize
		attempts = 60
		allowed  = 41
	)
	d := New(NVBM, workers*region)
	d.EnableMediaTracking()
	d.SetWearLimit(1 << 30) // slow path on, but nothing ever wears out
	d.CutPowerAfterTorn(allowed, 99)

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		landed int
	)
	wg.Add(workers + 1)
	go func() {
		defer wg.Done()
		for size := workers * region; size <= 4*workers*region; size += region {
			d.Grow(size)
		}
	}()
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte(w + 1)}, region)
			for k := 0; k < attempts; k++ {
				ok := func() (ok bool) {
					defer func() {
						if r := recover(); r != nil {
							if r != ErrPowerLost {
								panic(r)
							}
						}
					}()
					d.WriteAt(w*region, buf)
					return true
				}()
				mu.Lock()
				if ok {
					landed++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if landed != allowed {
		t.Fatalf("%d writes landed whole, want exactly %d", landed, allowed)
	}
	if fs := d.FaultStats(); fs.TornWrites != 1 {
		t.Fatalf("TornWrites = %d, want exactly 1 (one racing writer wins the tear)", fs.TornWrites)
	}
	// Line-granular tearing: every line of every region is uniformly one
	// writer's byte or still zero.
	b := d.Bytes()
	for w := 0; w < workers; w++ {
		for l := 0; l < linesPer; l++ {
			lo := w*region + l*LineSize
			first := b[lo]
			if first != 0 && first != byte(w+1) {
				t.Fatalf("region %d line %d holds foreign byte %#x", w, l, first)
			}
			for i := lo; i < lo+LineSize; i++ {
				if b[i] != first {
					t.Fatalf("region %d line %d is torn mid-line", w, l)
				}
			}
		}
	}
	// The CRC shadow stayed consistent through writes, the tear, and Grow.
	if bad := d.CorruptLines(); len(bad) != 0 {
		t.Fatalf("CRC shadow inconsistent at lines %v", bad)
	}
}

// TestConcurrentWritersPowerCut verifies the power-cut countdown under
// concurrent writers: exactly n writes land before ErrPowerLost, with no
// decrement lost to the load/store race the CAS loop replaced.
func TestConcurrentWritersPowerCut(t *testing.T) {
	const (
		workers  = 4
		attempts = 50
		allowed  = 37
	)
	d := New(NVBM, workers*LineSize)
	d.CutPowerAfter(allowed)

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		landed int
		died   int
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			buf := []byte{byte(w)}
			for k := 0; k < attempts; k++ {
				ok := func() (ok bool) {
					defer func() {
						if r := recover(); r != nil {
							if r != ErrPowerLost {
								panic(r)
							}
						}
					}()
					d.WriteAt(w*LineSize, buf)
					return true
				}()
				mu.Lock()
				if ok {
					landed++
				} else {
					died++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	if landed != allowed {
		t.Fatalf("%d writes landed, want exactly %d", landed, allowed)
	}
	if died != workers*attempts-allowed {
		t.Fatalf("%d writes died, want %d", died, workers*attempts-allowed)
	}
	if !d.PowerLost() {
		t.Fatal("device should report power lost")
	}
}

// TestConcurrentCommittedReadersRacingWriter exercises the read side of
// the contract that MVCC snapshot serving relies on: many goroutines
// issue charged reads against the SAME committed (immutable) lines —
// plus bulk ChargeReadN accounting — while a single writer keeps writing
// OTHER lines and Grow extends the device. The committed data must read
// back bit-identical every time and the read accounting must be exact.
// Run with -race.
func TestConcurrentCommittedReadersRacingWriter(t *testing.T) {
	const (
		readers     = 4
		readsEach   = 300
		chargesEach = 100
		region      = 4 * LineSize
		initialSize = 2 * region
	)
	d := New(NVBM, initialSize)
	committed := bytes.Repeat([]byte{0xA5}, region)
	d.WriteAt(0, committed)
	base := d.Stats()

	var wg sync.WaitGroup
	wg.Add(readers + 1)
	// Writer: mutates the second region and grows the device under the
	// readers' feet.
	go func() {
		defer wg.Done()
		buf := bytes.Repeat([]byte{0x5A}, region)
		size := initialSize
		for k := 0; k < readsEach; k++ {
			d.WriteAt(region, buf)
			if k%50 == 0 {
				size += region
				d.Grow(size)
			}
		}
	}()
	for w := 0; w < readers; w++ {
		go func() {
			defer wg.Done()
			got := make([]byte, region)
			for k := 0; k < readsEach; k++ {
				d.ReadAt(0, got)
				if !bytes.Equal(got, committed) {
					t.Error("committed lines changed under a reader")
					return
				}
			}
			for k := 0; k < chargesEach; k++ {
				d.ChargeReadN(2, LineSize)
			}
		}()
	}
	wg.Wait()

	st := d.Stats().Sub(base)
	if want := uint64(readers * (readsEach + 2*chargesEach)); st.Reads != want {
		t.Errorf("reads = %d, want %d", st.Reads, want)
	}
	if want := uint64(readers * (readsEach*region + 2*chargesEach*LineSize)); st.ReadBytes != want {
		t.Errorf("read bytes = %d, want %d", st.ReadBytes, want)
	}
	if want := uint64(readsEach); st.Writes != want {
		t.Errorf("writes = %d, want %d", st.Writes, want)
	}
}

// BenchmarkDeviceAccess makes the same 60 k octant-record read-write pairs
// (88 bytes each, the core record size) from one goroutine and then split
// over two on disjoint ranges, the pattern a parallel payload scatter
// would make. Each access takes the shared lock and adds to the shared
// access counters (and a written line's wear counter), so two goroutines
// contend on those words: on a 2-core Xeon the split run is about three
// times slower than the single one, not faster.
func BenchmarkDeviceAccess(b *testing.B) {
	const (
		record = 88
		pairs  = 60_000
	)
	for _, goroutines := range []int{1, 2} {
		b.Run(fmt.Sprintf("goroutines=%d", goroutines), func(b *testing.B) {
			d := New(NVBM, pairs*record)
			per := pairs / goroutines
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(first int) {
						defer wg.Done()
						var buf [record]byte
						for k := first; k < first+per; k++ {
							d.ReadAt(k*record, buf[:])
							buf[0]++
							d.WriteAt(k*record, buf[:])
						}
					}(g * per)
				}
				wg.Wait()
			}
		})
	}
}
