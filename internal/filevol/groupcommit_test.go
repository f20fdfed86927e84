package filevol

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"lobstore/internal/disk"
)

// flushDelay holds every barrier flush in flight long enough for a test to
// line barriers up behind it.
const flushDelay = 300 * time.Millisecond

// waitUntil polls cond under the volume's state mutex until it holds.
func waitUntil(t *testing.T, v *Volume, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v.mu.Lock()
		ok := cond()
		v.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// startCommit writes one page and runs a barrier in the background; the
// barrier's outcome arrives on the returned channel.
func startCommit(v *Volume, p disk.PageID, fill byte) <-chan error {
	done := make(chan error, 1)
	go func() {
		if err := v.WriteRun(disk.Addr{Page: p}, 1, page(fill)); err != nil {
			done <- err
			return
		}
		done <- v.Sync()
	}()
	return done
}

// startBehindFlush starts one barrier writing page 1, waits until its
// flush is in flight, optionally arms a power cut for the next barrier,
// then starts k more writing pages 2..k+1 and waits until all k have
// joined the group forming behind the flush. It returns the first
// barrier's outcome and the k others.
func startBehindFlush(t *testing.T, v *Volume, k int, armCut bool) (<-chan error, []<-chan error) {
	t.Helper()
	first := startCommit(v, 1, 0x77)
	waitUntil(t, v, "the first flush", func() bool { return v.flushing != nil })
	if armCut {
		if err := v.FailAtBarrier(1); err != nil {
			t.Fatalf("FailAtBarrier: %v", err)
		}
	}
	rest := make([]<-chan error, k)
	for i := range rest {
		rest[i] = startCommit(v, disk.PageID(2+i), 0xEE)
	}
	waitUntil(t, v, "the group behind the flush", func() bool {
		return v.forming != nil && v.forming.members == k
	})
	v.mu.Lock()
	inFlight := v.flushing != nil
	v.mu.Unlock()
	if !inFlight {
		t.Fatalf("first flush finished before %d barriers lined up; raise flushDelay", k)
	}
	return first, rest
}

// TestGroupCommitBatches pins the batch rule: while one flush is in
// flight, K barriers arrive and are all acknowledged by exactly one more
// flush — no size or delay setting involved.
func TestGroupCommitBatches(t *testing.T) {
	v := openTest(t, t.TempDir(), WithPolicy(SyncCommit), WithSyncDelay(flushDelay))
	defer v.Close()
	if _, err := v.AddArea(64); err != nil {
		t.Fatalf("AddArea: %v", err)
	}

	const k = 4
	first, rest := startBehindFlush(t, v, k, false)
	if err := <-first; err != nil {
		t.Fatalf("first barrier: %v", err)
	}
	for i, c := range rest {
		if err := <-c; err != nil {
			t.Fatalf("barrier %d: %v", i, err)
		}
	}

	s := v.SyncStats()
	if s.Barriers != k+1 {
		t.Fatalf("Barriers = %d, want %d", s.Barriers, k+1)
	}
	if s.Batches != 2 {
		t.Fatalf("Batches = %d, want 2 (the in-flight flush and one for the group behind it)", s.Batches)
	}
	if s.MaxBatch != k {
		t.Fatalf("MaxBatch = %d, want %d", s.MaxBatch, k)
	}
	if s.Fsyncs != 2 {
		t.Fatalf("Fsyncs = %d, want 2 (one dirty area per flush)", s.Fsyncs)
	}
}

// TestFlushDoesNotBlockIO pins that the device flush runs outside the
// state mutex: reads and writes issued while a barrier's flush is in
// flight complete before that barrier returns.
func TestFlushDoesNotBlockIO(t *testing.T) {
	v := openTest(t, t.TempDir(), WithPolicy(SyncCommit), WithSyncDelay(flushDelay))
	defer v.Close()
	if _, err := v.AddArea(64); err != nil {
		t.Fatalf("AddArea: %v", err)
	}

	barrier := startCommit(v, 0, 0x22)
	waitUntil(t, v, "the flush", func() bool { return v.flushing != nil })
	got := make([]byte, pageSize)
	if err := v.ReadRun(disk.Addr{Page: 0}, 1, got); err != nil {
		t.Fatalf("ReadRun: %v", err)
	}
	if !bytes.Equal(got, page(0x22)) {
		t.Fatalf("read during the flush missed the flushed write")
	}
	if err := v.WriteRun(disk.Addr{Page: 1}, 1, page(0x33)); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	select {
	case err := <-barrier:
		t.Fatalf("barrier returned (err %v) before the I/O issued during its flush", err)
	default:
	}
	if err := <-barrier; err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// TestGroupCommitHammer is the -race barrier-path hammer: concurrent callers ×
// every policy × injected flush latency, asserting exactly-once
// acknowledgement — every Sync call is counted once in Barriers, every
// commit-policy barrier is covered by some batch, and no barrier returns
// before its flush.
func TestGroupCommitHammer(t *testing.T) {
	policies := []Policy{SyncAlways, SyncCommit, SyncNever}
	for _, pol := range policies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			t.Parallel()
			v := openTest(t, t.TempDir(),
				WithPolicy(pol),
				WithSyncDelay(200*time.Microsecond))
			defer v.Close()
			if _, err := v.AddArea(256); err != nil {
				t.Fatalf("AddArea: %v", err)
			}

			const (
				workers = 16
				rounds  = 25
			)
			var wg sync.WaitGroup
			errCh := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					buf := page(byte(w))
					for r := 0; r < rounds; r++ {
						addr := disk.Addr{Page: disk.PageID(w*8 + rng.Intn(8))}
						if err := v.WriteRun(addr, 1, buf); err != nil {
							errCh <- err
							return
						}
						if err := v.Sync(); err != nil {
							errCh <- err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatalf("worker: %v", err)
			}

			s := v.SyncStats()
			if want := int64(workers * rounds); s.Barriers != want {
				t.Fatalf("Barriers = %d, want %d (lost or double acknowledgement)", s.Barriers, want)
			}
			switch pol {
			case SyncCommit:
				if s.Batches == 0 || s.Batches > s.Barriers {
					t.Fatalf("Batches = %d out of range (1..%d)", s.Batches, s.Barriers)
				}
				if s.MaxBatch < 1 || s.MaxBatch > workers {
					t.Fatalf("MaxBatch = %d, want 1..%d", s.MaxBatch, workers)
				}
			default:
				// always/never barriers have nothing to flush.
				if s.Batches != 0 || s.Fsyncs != 0 {
					t.Fatalf("policy %v flushed: %+v", pol, s)
				}
			}
		})
	}
}

// TestGroupCommitDoomedGroup pins the crash semantics of a group that
// formed behind an in-flight flush: a power cut armed to land on it
// leaves the in-flight group acknowledged and durable, while every member
// of the doomed group sees ErrPowerCut and its writes are rolled back.
func TestGroupCommitDoomedGroup(t *testing.T) {
	dir := t.TempDir()
	v := openTest(t, dir, WithPolicy(SyncCommit), WithCrashLog(), WithSyncDelay(flushDelay))
	if _, err := v.AddArea(64); err != nil {
		t.Fatalf("AddArea: %v", err)
	}

	// Barrier 1: committed state the cut must preserve.
	committed := page(0x5A)
	if err := v.WriteRun(disk.Addr{Page: 0}, 1, committed); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	if err := v.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}

	// Barrier 2 is in flight when the cut is armed; it lands on barrier 3,
	// the first member of the group forming behind it.
	const members = 3
	first, doomed := startBehindFlush(t, v, members, true)
	if err := <-first; err != nil {
		t.Fatalf("in-flight barrier: %v", err)
	}
	for i, c := range doomed {
		if err := <-c; !errors.Is(err, ErrPowerCut) {
			t.Fatalf("member %d acknowledged across a power cut: err = %v", i, err)
		}
	}
	if err := v.Close(); err != nil && !errors.Is(err, ErrPowerCut) {
		t.Fatalf("Close: %v", err)
	}

	// Reopen as a fresh process would: both acknowledged barriers' data is
	// intact, the doomed group's writes are gone.
	v2 := openTest(t, dir)
	defer v2.Close()
	if _, err := v2.AddArea(64); err != nil {
		t.Fatalf("reopen AddArea: %v", err)
	}
	got := make([]byte, pageSize)
	for p, want := range [][]byte{committed, page(0x77)} {
		if err := v2.ReadRun(disk.Addr{Page: disk.PageID(p)}, 1, got); err != nil {
			t.Fatalf("ReadRun page %d: %v", p, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("acknowledged page %d lost by the cut", p)
		}
	}
	for p := 2; p < 2+members; p++ {
		if err := v2.ReadRun(disk.Addr{Page: disk.PageID(p)}, 1, got); err != nil {
			t.Fatalf("ReadRun page %d: %v", p, err)
		}
		if !bytes.Equal(got, make([]byte, pageSize)) {
			t.Fatalf("unacknowledged page %d survived the cut", p)
		}
	}
}
