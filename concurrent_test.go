package lobstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"lobstore"
)

func concurrentConfig() lobstore.Config {
	cfg := testConfig()
	cfg.Concurrent = true
	// Open rejects starvation-prone pools under Concurrent; the paper's
	// 12-frame default is exactly that.
	cfg.BufferPages = lobstore.MinConcurrentBufferPages
	return cfg
}

// TestConcurrentRequiresMaterialize pins the facade contract: snapshot
// readers serve committed bytes, so Concurrent without Materialize is a
// configuration error — wrapped so front-ends can errors.Is it — not a
// silent downgrade.
func TestConcurrentRequiresMaterialize(t *testing.T) {
	cfg := concurrentConfig()
	cfg.Materialize = false
	_, err := lobstore.Open(cfg)
	if err == nil {
		t.Fatal("Open accepted Concurrent without Materialize")
	}
	if !errors.Is(err, lobstore.ErrConfig) {
		t.Fatalf("got %v, want an ErrConfig-wrapped error", err)
	}
}

// TestConcurrentRejectsStarvationPronePool pins the PR 9 sizing note as
// an enforced contract: Concurrent with the paper's 12-frame pool would
// starve FixRun once commits overlap, so Open refuses it up front.
func TestConcurrentRejectsStarvationPronePool(t *testing.T) {
	cfg := concurrentConfig()
	cfg.BufferPages = lobstore.MinConcurrentBufferPages - 1
	_, err := lobstore.Open(cfg)
	if err == nil {
		t.Fatal("Open accepted a starvation-prone BufferPages under Concurrent")
	}
	if !errors.Is(err, lobstore.ErrConfig) {
		t.Fatalf("got %v, want an ErrConfig-wrapped error", err)
	}
	// The same pool without Concurrent stays legal: the single-threaded
	// simulation never parks a committer.
	cfg.Concurrent = false
	db, err := lobstore.Open(cfg)
	if err != nil {
		t.Fatalf("non-concurrent open with small pool: %v", err)
	}
	db.Close()
}

// TestSnapshotRequiresConcurrent pins the off-mode contract: the default
// configuration carries no engine, so the concurrent-only API refuses.
func TestSnapshotRequiresConcurrent(t *testing.T) {
	db := openDB(t)
	defer db.Close()
	if _, err := db.Create("o", lobstore.ObjectSpec{Engine: "esm", LeafPages: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Snapshot("o"); err == nil {
		t.Fatal("Snapshot succeeded without Config.Concurrent")
	}
}

// TestConcurrentFacade drives the public DB surface from many goroutines:
// writers mutate named objects of all three engines through their
// handles, snapshot readers freeze and verify images, and observers call
// Now/Stats/Metrics/PoolHitRate the whole time. The test is the facade's
// -race coverage; correctness of snapshot isolation itself is hammered in
// internal/engine.
func TestConcurrentFacade(t *testing.T) {
	db, err := lobstore.Open(concurrentConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.EnableMetrics(nil)

	specs := map[string]lobstore.ObjectSpec{
		"e": {Engine: "esm", LeafPages: 4},
		"s": {Engine: "starburst"},
		"o": {Engine: "eos", Threshold: 4},
	}
	objs := map[string]lobstore.Object{}
	for name, spec := range specs {
		obj, err := db.Create(name, spec)
		if err != nil {
			t.Fatal(err)
		}
		objs[name] = obj
	}

	const ops = 15
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(specs)+1)

	for name, obj := range objs {
		name, obj := name, obj
		// One writer per object: append then read back.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				data := bytes.Repeat([]byte{byte('a' + i)}, 1500)
				if err := obj.Append(data); err != nil {
					errs <- fmt.Errorf("append %s: %w", name, err)
					return
				}
				buf := make([]byte, len(data))
				if err := obj.Read(obj.Size()-int64(len(data)), buf); err != nil {
					errs <- fmt.Errorf("read-back %s: %w", name, err)
					return
				}
				if !bytes.Equal(buf, data) {
					errs <- fmt.Errorf("read-back %s: tail differs from just-appended bytes", name)
					return
				}
			}
		}()
		// One snapshot reader per object.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				sn, err := db.Snapshot(name)
				if err != nil {
					errs <- fmt.Errorf("snapshot %s: %w", name, err)
					return
				}
				size, err := sn.Size()
				if err == nil && size > 0 {
					buf := make([]byte, size)
					err = sn.Read(0, buf)
				}
				if cerr := sn.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					errs <- fmt.Errorf("snapshot read %s: %w", name, err)
					return
				}
			}
		}()
	}

	// Observers: the read-only accessors must be safe while ops fly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4*ops; i++ {
			_ = db.Now()
			_ = db.Stats()
			db.PoolHitRate()
			if db.Metrics() == nil {
				errs <- fmt.Errorf("metrics registry vanished mid-flight")
				return
			}
			if _, err := db.Objects(); err != nil {
				errs <- fmt.Errorf("objects listing: %w", err)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for name, obj := range objs {
		want := int64(ops * 1500)
		if got := obj.Size(); got != want {
			t.Fatalf("object %s: size %d after the dust settled, want %d", name, got, want)
		}
	}
	if n := db.Metrics().Counter("engine.lock.acquires"); n == 0 {
		t.Fatal("engine.lock.acquires never bumped in concurrent mode")
	}
	if n := db.Metrics().Counter("engine.snapshot.opens"); n == 0 {
		t.Fatal("engine.snapshot.opens never bumped in concurrent mode")
	}
}

// TestGroupCommitBatchingUnderConcurrency proves the sync interposer does
// its one job: committers parked at durability barriers queue behind the
// file volume's in-flight flush and share the next one, so with K
// concurrent writers and no tuning at all the mean acknowledged batch
// exceeds one. A single-threaded client can never batch (each barrier
// flushes alone); only the engine's release of the store mutex across the
// device flush makes company possible.
func TestGroupCommitBatchingUnderConcurrency(t *testing.T) {
	const writers = 8
	cfg := fileConfig(t.TempDir())
	cfg.Concurrent = true
	cfg.BufferPages = lobstore.MinConcurrentBufferPages
	db, err := lobstore.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m := db.EnableMetrics(nil)

	objs := make([]lobstore.Object, writers)
	for i := range objs {
		obj, err := db.Create(fmt.Sprintf("w%d", i), lobstore.ObjectSpec{Engine: "esm", LeafPages: 4})
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = obj
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i, obj := range objs {
		wg.Add(1)
		go func(i int, obj lobstore.Object) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte('a' + i)}, 4096)
			for k := 0; k < 10; k++ {
				if err := obj.Append(data); err != nil {
					errs <- err
					return
				}
			}
		}(i, obj)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	batches := m.Counter("vol.groupcommit.batches")
	if batches == 0 {
		t.Fatal("no commit-group flushes recorded")
	}
	acks := m.Counter("vol.groupcommit.acks")
	if mean := float64(acks) / float64(batches); mean <= 1 {
		t.Fatalf("mean batch %d acks / %d flushes = %.2f with %d concurrent committers, want > 1",
			acks, batches, mean, writers)
	}
}
