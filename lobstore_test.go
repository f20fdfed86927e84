package lobstore_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"lobstore"
)

func testConfig() lobstore.Config {
	cfg := lobstore.DefaultConfig()
	cfg.LeafAreaPages = 1 << 14
	cfg.MetaAreaPages = 1 << 12
	cfg.MaxSegmentPages = 512
	return cfg
}

func openDB(t *testing.T) *lobstore.DB {
	t.Helper()
	db, err := lobstore.Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestDefaultConfigMatchesPaperTable1(t *testing.T) {
	cfg := lobstore.DefaultConfig()
	if cfg.PageSize != 4096 {
		t.Errorf("page size %d", cfg.PageSize)
	}
	if cfg.SeekTime != 33*time.Millisecond {
		t.Errorf("seek %v", cfg.SeekTime)
	}
	if cfg.TransferPerKB != time.Millisecond {
		t.Errorf("transfer %v", cfg.TransferPerKB)
	}
	if cfg.BufferPages != 12 || cfg.MaxBufferedRun != 4 {
		t.Errorf("pool %d/%d", cfg.BufferPages, cfg.MaxBufferedRun)
	}
	if cfg.MaxSegmentPages != 8192 {
		t.Errorf("max segment %d", cfg.MaxSegmentPages)
	}
}

func TestOpenRejectsBadConfig(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSegmentPages = 1000 // not a power of two
	if _, err := lobstore.Open(cfg); err == nil {
		t.Error("non-power-of-two MaxSegmentPages accepted")
	}
	cfg = testConfig()
	cfg.PageSize = 100
	if _, err := lobstore.Open(cfg); err == nil {
		t.Error("bad page size accepted")
	}
	// The deprecated commit knobs tune nothing, so setting one is an error.
	for name, set := range map[string]func(*lobstore.Config){
		"GroupCommit.MaxBatch": func(c *lobstore.Config) { c.GroupCommit.MaxBatch = 16 },
		"GroupCommit.MaxDelay": func(c *lobstore.Config) { c.GroupCommit.MaxDelay = time.Millisecond },
		"AsyncWriteback":       func(c *lobstore.Config) { c.AsyncWriteback = true },
	} {
		cfg = testConfig()
		set(&cfg)
		if _, err := lobstore.Open(cfg); !errors.Is(err, lobstore.ErrConfig) {
			t.Errorf("%s set: got %v, want an ErrConfig-wrapped error", name, err)
		}
	}
}

// TestAllEnginesRoundTrip exercises the full Object interface through the
// public API for each engine.
func TestAllEnginesRoundTrip(t *testing.T) {
	db := openDB(t)
	engines := map[string]func() (lobstore.Object, error){
		"esm":        func() (lobstore.Object, error) { return db.NewESM(4) },
		"esm-basic":  func() (lobstore.Object, error) { return db.NewESMBasic(4) },
		"starburst":  func() (lobstore.Object, error) { return db.NewStarburst(64) },
		"starburstK": func() (lobstore.Object, error) { return db.NewStarburstKnownSize(64, 100_000) },
		"eos":        func() (lobstore.Object, error) { return db.NewEOS(4) },
		"eos-maxseg": func() (lobstore.Object, error) { return db.NewEOSMaxSeg(4, 64) },
	}
	for name, open := range engines {
		t.Run(name, func(t *testing.T) {
			obj, err := open()
			if err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte("0123456789abcdef"), 4000) // 64 000 bytes
			if err := obj.Append(payload); err != nil {
				t.Fatal(err)
			}
			if obj.Size() != int64(len(payload)) {
				t.Fatalf("size %d", obj.Size())
			}
			if err := obj.Insert(100, []byte("INSERTED")); err != nil {
				t.Fatal(err)
			}
			if err := obj.Delete(50, 20); err != nil {
				t.Fatal(err)
			}
			if err := obj.Replace(0, []byte("HDR")); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, obj.Size())
			if err := obj.Read(0, got); err != nil {
				t.Fatal(err)
			}
			want := append([]byte{}, payload...)
			want = append(want[:100], append([]byte("INSERTED"), want[100:]...)...)
			want = append(want[:50], want[70:]...)
			copy(want, "HDR")
			if !bytes.Equal(got, want) {
				t.Fatal("content mismatch through public API")
			}
			u := obj.Utilization()
			if u.ObjectBytes != obj.Size() || u.Ratio() <= 0 || u.Ratio() > 1 {
				t.Fatalf("utilization %+v", u)
			}
			if err := obj.Close(); err != nil {
				t.Fatal(err)
			}
			if err := obj.Destroy(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMeasureAndClock(t *testing.T) {
	db := openDB(t)
	obj, err := db.NewEOS(4)
	if err != nil {
		t.Fatal(err)
	}
	before := db.Now()
	stats, err := db.Measure(func() error { return obj.Append(make([]byte, 40960)) })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Calls() == 0 || stats.PagesWritten == 0 {
		t.Fatalf("append produced no I/O: %+v", stats)
	}
	if db.Now()-before != stats.Time {
		t.Fatalf("clock advance %v, measured %v", db.Now()-before, stats.Time)
	}
	// A second identical database yields identical timings: determinism.
	db2, err := lobstore.Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	obj2, err := db2.NewEOS(4)
	if err != nil {
		t.Fatal(err)
	}
	stats2, err := db2.Measure(func() error { return obj2.Append(make([]byte, 40960)) })
	if err != nil {
		t.Fatal(err)
	}
	if stats2 != stats {
		t.Fatalf("non-deterministic costs: %+v vs %+v", stats, stats2)
	}
}

// TestPaperCostExample reproduces §4.1's worked example through the public
// API: a 3-block read in one call costs 45 ms.
func TestPaperCostExample(t *testing.T) {
	db := openDB(t)
	obj, err := db.NewEOS(4)
	if err != nil {
		t.Fatal(err)
	}
	// Build a 16-page object. The growth pattern yields segments of
	// 1,2,4,8,… pages; bytes [28K,60K) lie within the single 8-page
	// segment, so an aligned 3-page read there is one I/O call.
	if err := obj.Append(make([]byte, 16*4096)); err != nil {
		t.Fatal(err)
	}
	stats, err := db.Measure(func() error { return obj.Read(7*4096, make([]byte, 3*4096)) })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Time != 45*time.Millisecond {
		t.Fatalf("3-block read cost %v, want 45ms", stats.Time)
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := lobstore.Stats{ReadCalls: 2, WriteCalls: 1, PagesRead: 5, PagesWritten: 3, Time: time.Second}
	b := lobstore.Stats{ReadCalls: 1, WriteCalls: 1, PagesRead: 2, PagesWritten: 1, Time: time.Millisecond}
	d := a.Sub(b)
	if d.ReadCalls != 1 || d.Pages() != 5 || d.Calls() != 1 {
		t.Fatalf("sub: %+v", d)
	}
}

func TestPoolHitRate(t *testing.T) {
	db := openDB(t)
	obj, err := db.NewESM(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Append(make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	for i := 0; i < 5; i++ {
		if err := obj.Read(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := db.PoolHitRate()
	if hits == 0 || misses == 0 {
		t.Fatalf("hit rate %d/%d", hits, misses)
	}
}

func TestESMOptsVariants(t *testing.T) {
	db := openDB(t)
	for _, o := range []lobstore.ESMOptions{
		{LeafPages: 2, WholeLeafIO: true},
		{LeafPages: 2, NoShadow: true},
		{LeafPages: 2, BasicInsert: true},
	} {
		obj, err := db.NewESMOpts(o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		if err := obj.Append(make([]byte, 20000)); err != nil {
			t.Fatal(err)
		}
		if err := obj.Insert(5000, make([]byte, 300)); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, obj.Size())
		if err := obj.Read(0, got); err != nil {
			t.Fatal(err)
		}
		if err := obj.Destroy(); err != nil {
			t.Fatal(err)
		}
	}
}
