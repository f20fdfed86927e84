package filevol

import "time"

// This file is the volume's barrier path: group commit derived from load.
//
// Under policy "commit" every §3.3 barrier needs a device flush, and
// BENCH_volume.json shows that flush dwarfs the pwrite it covers. When
// several clients commit at once one flush can acknowledge all of them,
// so barriers are combined into commit groups by one rule:
//
//	a commit group is every barrier that arrives while the previous
//	group's flush is in flight.
//
// Only one flush runs at a time. The first barrier to arrive while no
// group is forming leads a new group; later arrivals join it and park on
// its done channel. The leader waits for the in-flight flush (if any),
// then, under the state mutex, seals the group, takes and clears the
// dirty-area flags and starts a new crash-log interval. It runs
// fdatasync with the mutex released, so reads, writes and new arrivals
// never wait on the device, and broadcasts the outcome by closing done.
// A lone client therefore flushes immediately, and the batch grows with
// the number of committers queued behind the device — no size or delay
// knob.
//
// Ordering. A member's writes precede its Sync call, so when its group
// is sealed they are either in the dirty set the group's flush covers or
// were covered by the in-flight flush the leader waited for. Either way
// every member returns only after a flush that includes its writes, which
// is the durability §3.3 asks of a barrier. Writes that land while a
// flush is in flight belong to the next interval: they re-mark their
// area dirty, and the crash log records them against the new interval.
//
// Failure. If fdatasync fails, the group's areas are marked dirty again
// and its sealed crash-log interval is folded back, so its pre-images
// stay doomed; every member sees the error.
//
// Crash injection. An armed power cut that lands on any member dooms the
// whole group. The leader waits for the in-flight flush — that group is
// acknowledged and durable — and then runs the power-cut rollback
// instead of a flush: the cut falls between the group's data writes and
// its flush, so no member is acknowledged and every one returns
// ErrPowerCut.
//
// Under policies "always" and "never" a barrier only counts itself and
// checks the armed power cut: there is nothing to flush.

// commitGroup is one batch of barriers acknowledged by a single flush.
type commitGroup struct {
	members int
	doomed  bool          // an armed power cut landed on a member
	done    chan struct{} // closed by the leader once err is set
	err     error

	// Set when the group is sealed: the areas its flush covers and the
	// crash-log interval it makes durable.
	dirty  []*areaFile
	sealed *crashLog
}

// WithSyncDelay injects artificial latency into every barrier flush.
// Testing aid: it holds a flush in flight long enough for concurrent
// barriers to pile up behind it deterministically.
func WithSyncDelay(d time.Duration) Option {
	return func(v *Volume) { v.syncDelay = d }
}

// Sync is the durability barrier. Under SyncCommit it returns once every
// file written before the call is flushed, possibly by a flush another
// caller led; under SyncAlways and SyncNever it is a no-op (the former is
// already durable, the latter opts out). An armed power cut fires here:
// un-synced writes are rolled back and the volume dies.
func (v *Volume) Sync() error {
	g, lead, err := v.join()
	if !lead {
		if g == nil {
			return err
		}
		<-g.done
		return g.err
	}
	g.err = v.lead(g)
	close(g.done)
	return g.err
}

// join counts one barrier and, under SyncCommit, adds it to the forming
// commit group, opening a new group — and leading it — when none is
// forming. g is nil when the barrier has nothing to wait for.
func (v *Volume) join() (g *commitGroup, lead bool, err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.dead {
		return nil, false, ErrPowerCut
	}
	v.stats.Barriers++
	doomed := v.failAt > 0 && v.stats.Barriers >= v.failAt
	if v.policy != SyncCommit {
		if doomed {
			return nil, false, v.powerCut()
		}
		return nil, false, nil
	}
	if g = v.forming; g == nil {
		g = &commitGroup{done: make(chan struct{})}
		v.forming = g
		lead = true
	}
	g.members++
	g.doomed = g.doomed || doomed
	return g, lead, nil
}

// lead makes g durable with one flush, or rolls it back if doomed.
func (v *Volume) lead(g *commitGroup) error {
	if err := v.seal(g); err != nil {
		return err
	}
	if v.syncDelay > 0 {
		time.Sleep(v.syncDelay)
	}
	err := fsyncAreas(g.dirty)
	v.settle(g, err)
	return err
}

// seal waits until no flush is in flight, closes g to new members and
// claims the flush for it: g takes the dirty-area flags and the current
// crash-log interval. A doomed group runs the power cut instead.
func (v *Volume) seal(g *commitGroup) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.awaitFlush()
	v.forming = nil
	if g.doomed {
		return v.powerCut()
	}
	g.dirty = v.takeDirty()
	if v.log != nil {
		g.sealed = v.log.seal()
	}
	v.flushing = g
	return nil
}

// settle records the outcome of g's flush and frees the flush slot. On
// failure g's areas still owe a flush and its pre-images stay doomed.
func (v *Volume) settle(g *commitGroup, err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.flushing = nil
	v.idle.Broadcast()
	if err != nil {
		markDirty(g.dirty)
		if g.sealed != nil {
			v.log.reopen(g.sealed)
		}
		return
	}
	v.stats.Batches++
	v.stats.Fsyncs += int64(len(g.dirty))
	v.stats.MaxBatch = max(v.stats.MaxBatch, int64(g.members))
}
