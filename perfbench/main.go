// Command perfbench is lobstore's end-to-end benchmark. It opens a
// file-backed lobstore.DB with lobserve's shipped defaults, serves it
// with internal/server on a loopback listener inside this process, and
// drives it over real TCP from two closed-loop connections speaking
// internal/wire. Every read is checked against a reference model of the
// objects, every object's final size and bytes are checked after the
// run, and a closed file-backed store must pass lobstore.Fsck.
//
// Run it from the root of the repository:
//
//	bash perfbench/run.sh --workload read-4k --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer split, taken
// from a second, traced half of the run. A human-readable report goes to
// standard error. Workloads, metrics and what each metric should move
// are listed in perfbench/context.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"lobstore"
	"lobstore/internal/obs"
	"lobstore/internal/server"
)

// Each run sets up setupRepeats fresh stores, reports the median set-up
// time, and measures on the last one.
const setupRepeats = 5

// warmup runs the workload before measuring so the buffer pool and the
// server's handle cache are filled.
const warmup = time.Second

// windowLen is the nominal length of the windows a measured phase is
// split into; end-to-end rates and percentiles are the median over
// windows, so a burst of load from outside the benchmark moves them less.
const windowLen = time.Second

// spanKeep is how many traced requests per connection keep their spans
// in memory to be written out after the run.
const spanKeep = 2000

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: read-4k, edit-mix or scan-256k")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1: report the per-layer split from a traced run")
		work    = flag.String("dir", ".bench_build/perfbench", "scratch directory for stores and span files")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := bench(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		if !errors.Is(err, errMismatch) {
			return 1
		}
		res.Correct = false
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// dbConfig is lobserve's configuration with the given -backend and -dir
// and every other flag at its default: sync "commit", group commit off,
// no coalescing, no async write-back, the concurrent engine's minimum
// pool.
func dbConfig(backend, dir string) lobstore.Config {
	cfg := lobstore.DefaultConfig()
	cfg.Backend, cfg.SyncPolicy = backend, "commit"
	if backend == "file" {
		cfg.Dir = dir
	}
	cfg.Concurrent = true
	cfg.BufferPages = lobstore.MinConcurrentBufferPages
	return cfg
}

// serverOptions are lobserve's defaults: zero selects the server's own.
var serverOptions = server.Options{}

// serverConfig lists the store and server settings every run uses
// besides the workload's backend; perfbench/context.json records the
// same list.
func serverConfig() map[string]any {
	cfg := dbConfig("", "")
	return map[string]any{
		"sync_policy":            cfg.SyncPolicy,
		"concurrent":             cfg.Concurrent,
		"page_size":              cfg.PageSize,
		"buffer_pages":           cfg.BufferPages,
		"max_buffered_run":       cfg.MaxBufferedRun,
		"leaf_area_pages":        cfg.LeafAreaPages,
		"meta_area_pages":        cfg.MetaAreaPages,
		"max_segment_pages":      cfg.MaxSegmentPages,
		"coalesce":               cfg.Coalesce,
		"group_commit_max_batch": cfg.GroupCommit.MaxBatch,
		"group_commit_max_delay": cfg.GroupCommit.MaxDelay.String(),
		"async_writeback":        cfg.AsyncWriteback,
		"server_workers":         serverOptions.Workers,
		"server_chunk_bytes":     serverOptions.ChunkBytes,
		"server_max_payload":     serverOptions.MaxPayload,
	}
}

// front is one server instance over the DB.
type front struct {
	srv  *server.Server
	ln   net.Listener
	done chan error
}

func startFront(db *lobstore.DB) (*front, error) {
	srv, err := server.New(db, serverOptions)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	f := &front{srv: srv, ln: ln, done: make(chan error, 1)}
	go func() { f.done <- srv.Serve(ln) }()
	return f, nil
}

func (f *front) addr() string { return f.ln.Addr().String() }

// halt closes the listener and waits for Serve to drain every
// connection.
func (f *front) halt() error {
	f.srv.Close(f.ln) //lobvet:ignore errdiscard — Serve reports the outcome
	if err := <-f.done; !errors.Is(err, server.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// stop halts the server and closes its cached handles, so Starburst and
// EOS trim their growth slack before the next server opens them.
func (f *front) stop() error {
	if err := f.halt(); err != nil {
		return errors.Join(err, f.srv.CloseHandles())
	}
	return f.srv.CloseHandles()
}

// dialAll opens the workload's connections, giving connection j the
// callers j*slots .. (j+1)*slots-1.
func dialAll(f *front, w *workload, callers []*caller, bufLen int) ([]*conn, error) {
	var conns []*conn
	for j := 0; j < w.conns; j++ {
		c, err := dial(f.addr(), j, callers[j*w.slots:(j+1)*w.slots], bufLen)
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func closeAll(conns []*conn) {
	for _, c := range conns {
		c.close() //lobvet:ignore errdiscard — the server reports the outcome of each connection
	}
}

// eachConn runs fn on every connection in its own goroutine and returns
// the first error.
func eachConn(conns []*conn, fn func(j int, c *conn) error) error {
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for j, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[j] = fn(j, c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setup opens a fresh store in dir, serves it and preloads every object
// over the wire, each connection loading its own callers' objects.
func setup(w *workload, callers []*caller, dir string) (*lobstore.DB, error) {
	db, err := lobstore.Open(dbConfig(w.backend, dir))
	if err != nil {
		return nil, err
	}
	f, err := startFront(db)
	if err != nil {
		return nil, errors.Join(err, db.Close())
	}
	conns, err := dialAll(f, w, callers, w.readLen)
	if err == nil {
		err = eachConn(conns, func(_ int, c *conn) error {
			for _, s := range c.slots {
				for _, o := range s.caller.objs {
					if err := c.preload(o); err != nil {
						return err
					}
				}
			}
			return nil
		})
		closeAll(conns)
	}
	if serr := f.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, errors.Join(err, db.Close())
	}
	return db, nil
}

// bench runs one workload end to end.
func bench(w *workload, seed int64, dur time.Duration, trace bool, work string) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir) //lobvet:ignore errdiscard — a leftover scratch store changes no result
	objs := newObjects(w, seed)
	callers := newCallers(w, objs, seed)
	cfg, err := json.Marshal(serverConfig())
	if err != nil {
		return res, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, %s backend, %d conns x %d in flight, %d objects x %d KiB, %v\nperfbench: config %s\n",
		w.name, seed, w.backend, w.conns, w.slots, w.objects, w.objectBytes/kib, contextLine(), cfg)

	var (
		db     *lobstore.DB
		setups []float64
	)
	for k := 0; k < setupRepeats; k++ {
		sdir := filepath.Join(dir, fmt.Sprintf("db%d", k))
		t0 := now()
		db, err = setup(w, callers, sdir)
		if err != nil {
			return res, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, float64(now()-t0)/1e9)
		if k < setupRepeats-1 {
			if err := db.Close(); err != nil {
				return res, err
			}
			if err := os.RemoveAll(sdir); err != nil {
				return res, err
			}
		}
	}
	dbDir := filepath.Join(dir, fmt.Sprintf("db%d", setupRepeats-1))
	closed := false
	defer func() {
		if !closed {
			db.Close() //lobvet:ignore errdiscard — an earlier error is already being returned
		}
	}()

	if _, err := runPhase(db, w, callers, warmup, false); err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	var measured, traced *phase
	if !trace {
		measured, err = runPhase(db, w, callers, dur, false)
	} else {
		measured, err = runPhase(db, w, callers, dur/2, false)
		if err == nil {
			db.EnableMetrics(nil)
			// The volume's flush counters reach the metrics as deltas at
			// the next barrier; a checkpoint takes the delta since the
			// store opened before the traced phase starts counting.
			err = db.Checkpoint()
		}
		if err == nil {
			traced, err = runPhase(db, w, callers, dur/2, true)
		}
	}
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed = measured.st.ops, measured.st.failed
	data, meta := db.SpaceInUse()
	var live int64
	for _, o := range objs {
		live += int64(len(o.data))
	}
	spaceAmp := float64((data+meta)*int64(db.PageSize())) / float64(live)

	if err := verifyAll(db, objs); err != nil {
		return res, fmt.Errorf("final check: %w", err)
	}
	closed = true
	if err := db.Close(); err != nil {
		return res, err
	}
	if w.backend == "file" {
		rep, err := lobstore.Fsck(dbDir)
		if err != nil {
			return res, fmt.Errorf("fsck: %w", err)
		}
		if !rep.Clean() {
			return res, fmt.Errorf("fsck: %d leaked, %d doubly owned ranges: %w", len(rep.Leaked), len(rep.DoublyOwned), errMismatch)
		}
	}

	if !trace {
		endToEnd(res.Metrics, measured, spaceAmp, median(setups))
		measured.report(os.Stderr, w.name, "measured")
		printMetrics(os.Stderr, res.Metrics)
	} else {
		res.Attempted, res.Failed = traced.st.ops, traced.st.failed
		fsyncUs, err := calibrateFsync(dir, traced)
		if err != nil {
			return res, err
		}
		perLayer(res.Metrics, traced, measured, fsyncUs)
		traced.report(os.Stderr, w.name, "traced")
		printMetrics(os.Stderr, res.Metrics)
		path := filepath.Join(work, fmt.Sprintf("spans-%s.jsonl", w.name))
		if err := writeSpans(path, traced.st.spans); err != nil {
			return res, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	return res, nil
}

// verifyAll checks every object's size and bytes through a fresh front.
func verifyAll(db *lobstore.DB, objs []*object) error {
	f, err := startFront(db)
	if err != nil {
		return err
	}
	c, err := dial(f.addr(), 0, []*caller{nil}, 256*kib)
	if err == nil {
		for _, o := range objs {
			if err = c.verify(o); err != nil {
				break
			}
		}
		c.close() //lobvet:ignore errdiscard — every reply has been read
	}
	return errors.Join(err, f.stop())
}

// phase is one measured interval on its own server instance, so the
// server's service-time histogram covers exactly its requests.
type phase struct {
	st            *stats
	start         int64
	before, after snapshot
	service       obs.LatencySummary
	elapsed       float64 // seconds, first send to last reply
}

func runPhase(db *lobstore.DB, w *workload, callers []*caller, dur time.Duration, trace bool) (*phase, error) {
	f, err := startFront(db)
	if err != nil {
		return nil, err
	}
	bufLen := w.readLen
	if bufLen == 0 {
		bufLen = editMax
	}
	conns, err := dialAll(f, w, callers, bufLen)
	if err != nil {
		return nil, errors.Join(err, f.stop())
	}
	spans := 0
	if trace {
		spans = spanKeep
	}
	windows := max(int(dur/windowLen), 1)
	winNs := int64(dur) / int64(windows) // windows tile the phase exactly
	p := &phase{before: takeSnapshot(db)}
	p.start = now()
	deadline := p.start + int64(dur)
	p.st = newStats(p.start, windows, winNs, 0)
	sts := make([]*stats, len(conns))
	for j := range sts {
		sts[j] = newStats(p.start, windows, winNs, spans)
	}
	err = eachConn(conns, func(j int, c *conn) error { return c.run(deadline, sts[j]) })
	closeAll(conns)
	// The server is halted before the closing snapshot so every request
	// it served happens-before the read of the metrics it recorded, and
	// the handles are closed after it so their trimming is not counted.
	err = errors.Join(err, f.halt())
	p.after = takeSnapshot(db)
	p.service = f.srv.LatencySummary()
	if err = errors.Join(err, f.srv.CloseHandles()); err != nil {
		return nil, err
	}
	for _, s := range sts {
		p.st.merge(s)
	}
	p.elapsed = float64(p.st.last-p.start) / 1e9
	return p, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
