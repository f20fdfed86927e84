package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"lobstore"
	"lobstore/internal/disk"
	"lobstore/internal/filevol"
	"lobstore/internal/obs"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r result) print(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func contextLine() string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// snapshot holds the cumulative counters read at a phase boundary, all
// through public functions of the program.
type snapshot struct {
	disk         lobstore.Stats
	barriers     int64
	hits, misses int64
	cpuNs        int64
	allocBytes   uint64
	gcs          uint32
	fragIndex    float64
	counters     map[string]int64
	// Set only when metrics are enabled; they cover everything since
	// EnableMetrics, which is the traced phase.
	engineOp  [3]*obs.HDR // read, insert, delete
	lockWait  *obs.HDR
	depthMean float64
}

func takeSnapshot(db *lobstore.DB) snapshot {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //lobvet:ignore errdiscard — cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snapshot{
		disk:       db.Stats(),
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		allocBytes: ms.TotalAlloc,
		gcs:        ms.NumGC,
		fragIndex:  db.LeafFragmentation().Index(),
		counters:   map[string]int64{},
	}
	s.barriers, _ = db.SyncBarriers() //lobvet:ignore errdiscard — 0 without a file-backed store
	s.hits, s.misses = db.PoolHitRate()
	if m := db.Metrics(); m != nil {
		for _, n := range m.CounterNames() {
			s.counters[n] = m.Counter(n)
		}
		for i, op := range []obs.Op{obs.OpRead, obs.OpInsert, obs.OpDelete} {
			s.engineOp[i] = m.WallLatency(op)
		}
		s.lockWait = m.LockWaitLatency()
		s.depthMean = m.Depth.Mean()
	}
	return s
}

func (p *phase) delta(counter string) float64 {
	return float64(p.after.counters[counter] - p.before.counters[counter])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func (p *phase) goodOps() float64 { return float64(p.st.ops - p.st.failed) }

func (p *phase) opsPerSec() float64 { return ratio(p.goodOps(), p.elapsed) }

func (p *phase) all() *obs.HDR {
	h := p.st.read.Clone()
	h.Merge(p.st.write)
	return h
}

// windowed returns the median over the phase's windows of f.
func (p *phase) windowed(f func(w *window) float64) float64 {
	vs := make([]float64, len(p.st.win))
	for i := range p.st.win {
		vs[i] = f(&p.st.win[i])
	}
	return median(vs)
}

// endToEnd fills the metrics a user of the server sees.
func endToEnd(m map[string]metric, p *phase, spaceAmp, setupS float64) {
	perSec := float64(p.st.winNs) / float64(time.Second)
	quantile := func(q float64, read, write bool) func(w *window) float64 {
		return func(w *window) float64 {
			h := obs.NewHDR()
			if read {
				h.Merge(w.read)
			}
			if write {
				h.Merge(w.write)
			}
			return us(h.Quantile(q))
		}
	}
	m["ops_per_s"] = metric{p.windowed(func(w *window) float64 { return float64(w.ops) / perSec }), "1/s"}
	m["mb_per_s"] = metric{p.windowed(func(w *window) float64 { return float64(w.bytes) / 1e6 / perSec }), "MB/s"}
	m["read_p50_us"] = metric{p.windowed(quantile(0.5, true, false)), "us"}
	m["read_p90_us"] = metric{p.windowed(quantile(0.9, true, false)), "us"}
	m["all_p50_us"] = metric{p.windowed(quantile(0.5, true, true)), "us"}
	m["all_p90_us"] = metric{p.windowed(quantile(0.9, true, true)), "us"}
	m["cpu_us_per_op"] = metric{ratio(float64(p.after.cpuNs-p.before.cpuNs)/1e3, p.goodOps()), "us"}
	m["space_amp"] = metric{spaceAmp, "ratio"}
	m["setup_s"] = metric{setupS, "s"}
}

// perLayer fills the per-layer split from the traced phase t; u is the
// untraced phase run just before it on the same store.
func perLayer(m map[string]metric, t, u *phase, fsyncUs float64) {
	st := t.st
	ops := float64(st.ops)
	writes := float64(st.writes)
	perOp := func(counter string) float64 { return ratio(t.delta(counter), ops) }
	add := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	add("wire.encode_ns", "ns", ratio(float64(st.encodeNs), ops))
	add("wire.decode_ns", "ns", ratio(float64(st.decodeNs), ops))

	all := t.all()
	svc := t.service
	engineAll := obs.NewHDR()
	for _, h := range t.after.engineOp {
		engineAll.Merge(h)
	}
	add("server.service_p50_us", "us", float64(svc.P50Us))
	add("server.service_p90_us", "us", float64(svc.P90Us))
	add("server.outside_p50_us", "us", us(all.Quantile(0.5))-float64(svc.P50Us))
	add("server.queue_p50_us", "us", float64(svc.P50Us)-float64(engineAll.Quantile(0.5)))
	add("server.frames_per_read", "1/op", ratio(float64(st.readFrames), float64(st.reads)))

	for i, name := range []string{"read", "insert", "delete"} {
		var v float64
		if h := t.after.engineOp[i]; h != nil {
			v = float64(h.Quantile(0.5))
		}
		add("engine.op_p50_us."+name, "us", v)
	}
	var lockP90 float64
	if t.after.lockWait != nil {
		lockP90 = float64(t.after.lockWait.Quantile(0.9))
	}
	add("engine.lock_wait_p90_us", "us", lockP90)
	add("engine.lock_acquires_per_op", "1/op", perOp("engine.lock.acquires"))
	add("engine.epoch_reclaimed_per_op", "1/op", perOp("engine.epoch.reclaimed"))

	for i, name := range structNames {
		add(name+".read_p50_us", "us", us(st.byStruct[i][0].Quantile(0.5)))
		add(name+".write_p50_us", "us", us(st.byStruct[i][1].Quantile(0.5)))
	}
	add("write_p50_us", "us", us(st.write.Quantile(0.5)))
	add("write_p90_us", "us", us(st.write.Quantile(0.9)))

	add("tree.descents_per_op", "1/op", perOp("tree.descents"))
	add("tree.depth_mean", "pages", t.after.depthMean)
	add("leaf.splits_per_op", "1/op", perOp("leaf.splits"))
	add("leaf.merges_per_op", "1/op", perOp("leaf.merges"))

	hits := float64(t.after.hits - t.before.hits)
	misses := float64(t.after.misses - t.before.misses)
	add("buffer.hit_rate", "ratio", ratio(hits, hits+misses))
	add("buffer.evictions_per_op", "1/op", perOp("buf.evictions"))
	add("buffer.flushes_per_op", "1/op", perOp("buf.flushes"))
	add("buffer.runfetches_per_op", "1/op", perOp("buf.runfetches"))

	add("buddy.allocs_per_op", "1/op", perOp("buddy.allocs"))
	add("buddy.alloc_pages_per_op", "pages/op", perOp("buddy.alloc.pages"))
	add("buddy.frees_per_op", "1/op", perOp("buddy.frees"))
	add("buddy.fragmentation", "ratio", t.after.fragIndex)

	d := t.after.disk.Sub(t.before.disk)
	add("disk.read_calls_per_op", "1/op", ratio(float64(d.ReadCalls), ops))
	add("disk.write_calls_per_op", "1/op", ratio(float64(d.WriteCalls), ops))
	add("disk.pages_read_per_op", "pages/op", ratio(float64(d.PagesRead), ops))
	add("disk.pages_written_per_op", "pages/op", ratio(float64(d.PagesWritten), ops))
	add("disk.write_amp", "ratio", ratio(float64(d.PagesWritten*pageSize), float64(st.writeBytes)))
	add("disk.sim_ms_per_op", "ms/op", ratio(float64(d.Time)/float64(time.Millisecond), ops))

	add("filevol.barriers_per_write", "1/op", ratio(float64(t.after.barriers-t.before.barriers), writes))
	add("filevol.fsyncs_per_write", "1/op", ratio(t.delta("vol.fsyncs"), writes))
	add("filevol.group_batch_mean", "1/op", ratio(t.delta("vol.groupcommit.acks"), t.delta("vol.groupcommit.batches")))
	add("filevol.fsync_us", "us", fsyncUs)

	add("runtime.alloc_bytes_per_op", "B/op", ratio(float64(t.after.allocBytes-t.before.allocBytes), ops))
	add("runtime.gc_per_s", "1/s", ratio(float64(t.after.gcs-t.before.gcs), t.elapsed))

	add("trace.ops_per_s", "1/s", t.opsPerSec())
	add("trace.untraced_ops_per_s", "1/s", u.opsPerSec())
	add("trace.overhead_pct", "%", 100*(1-ratio(t.opsPerSec(), u.opsPerSec())))
}

const pageSize = 4096

// calibrateFsync times (*filevol.Volume).Sync after a WriteRun of the
// traced phase's mean write size, on a scratch volume in the same file
// system as the store, and returns the median in microseconds.
func calibrateFsync(dir string, t *phase) (float64, error) {
	d := t.after.disk.Sub(t.before.disk)
	pages := max(int(ratio(float64(d.PagesWritten), float64(d.WriteCalls))+0.5), 1)
	v, err := filevol.Open(filepath.Join(dir, "fsync-calibration"), pageSize, filevol.WithPolicy(filevol.SyncCommit))
	if err != nil {
		return 0, err
	}
	times, err := timeSyncs(v, pages, 32)
	if cerr := v.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("fsync calibration: %w", err)
	}
	return median(times), nil
}

func timeSyncs(v *filevol.Volume, pages, rounds int) ([]float64, error) {
	area, err := v.AddArea(rounds * pages)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, pages*pageSize)
	var times []float64
	for i := 0; i < rounds; i++ {
		buf[0] = byte(i)
		if err := v.WriteRun(disk.Addr{Area: area, Page: disk.PageID(i * pages)}, pages, buf); err != nil {
			return nil, err
		}
		t0 := now()
		if err := v.Sync(); err != nil {
			return nil, err
		}
		times = append(times, us(now()-t0))
	}
	return times, nil
}

// report prints a human-readable summary of a phase.
func (p *phase) report(w io.Writer, name, what string) {
	st := p.st
	fmt.Fprintf(w, "perfbench: %s %s: %d ops (%d failed) in %.2fs = %.0f ops/s; reads %d p50 %.1fus p90 %.1fus; writes %d p50 %.1fus p90 %.1fus; server service p50 %dus\n",
		name, what, st.ops, st.failed, p.elapsed, p.opsPerSec(),
		st.reads, us(st.read.Quantile(0.5)), us(st.read.Quantile(0.9)),
		st.writes, us(st.write.Quantile(0.5)), us(st.write.Quantile(0.9)), p.service.P50Us)
}

// printMetrics lists metrics by name with units on w.
func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// writeSpans writes the kept traced requests as JSON lines: one req
// root span and its four children per request, all sharing the
// request's trace id.
func writeSpans(path string, spans []reqSpans) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	var id int64
	for _, r := range spans {
		trace := fmt.Sprintf("c%d-%d", r.conn, r.reqID)
		root := id
		for _, s := range []struct {
			name       string
			start, end int64
		}{
			{"req", r.start, r.end},
			{"wire.encode", r.start, r.encoded},
			{"net.send", r.encoded, r.sent},
			{"net.await", r.sent, r.firstHdr},
			{"wire.decode", r.firstHdr, r.end},
		} {
			parent := fmt.Sprint(root)
			if s.name == "req" {
				parent = "null"
			}
			fmt.Fprintf(bw, `{"trace":%q,"id":%d,"parent":%s,"name":%q,"op":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				trace, id, parent, s.name, r.kind, s.start, s.end)
			id++
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close() //lobvet:ignore errdiscard — reporting the write error
		return err
	}
	return f.Close()
}
