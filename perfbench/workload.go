package main

import (
	"bytes"
	"fmt"
	"math/rand"
)

const kib = 1 << 10

// Structures, in the order objects are spread over them: object i uses
// structure i % numStructures.
const (
	structESM = iota
	structStarburst
	structEOS
	numStructures
)

var structNames = [numStructures]string{"esm", "starburst", "eos"}

type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete
)

// workload is one traffic mix. Every caller is a closed loop: it sends
// its next request only after the previous one has been answered.
type workload struct {
	name        string
	objects     int
	objectBytes int
	// backend is the store's byte storage: "file" or "mem". File-backed
	// edits wait on fdatasync and write-back, whose latency on a shared
	// disk swings by more than half between runs, so edit-mix keeps its
	// bytes in memory, lobserve's default backend.
	backend string
	conns   int
	slots   int // in-flight requests per connection, one per caller
	// hotBlocks is the number of 4 KiB blocks per caller that take
	// hotFrac of its reads (read-4k only).
	hotBlocks int
	hotFrac   float64
	// readLen fixes the read size; 0 draws it like an edit (5–15 KiB).
	readLen int
	// readPct/insertPct give the mix in percent; the rest are deletes.
	readPct, insertPct int
	// scan reads every owned object front to back in readLen requests.
	scan bool
}

var workloads = []*workload{
	{
		name:        "read-4k",
		backend:     "file",
		objects:     48,
		objectBytes: 256 * kib,
		conns:       2,
		slots:       1,
		hotBlocks:   16,
		hotFrac:     0.9,
		readLen:     4 * kib,
		readPct:     100,
	},
	{
		name:        "edit-mix",
		backend:     "mem",
		objects:     48,
		objectBytes: 256 * kib,
		conns:       2,
		slots:       4,
		readPct:     40,
		insertPct:   30,
	},
	{
		name:        "scan-256k",
		backend:     "file",
		objects:     12,
		objectBytes: 4 << 20,
		conns:       2,
		slots:       1,
		readLen:     256 * kib,
		readPct:     100,
		scan:        true,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) callers() int { return w.conns * w.slots }

// Edit sizes are uniform in [editMin, editMax], the paper's 10 KiB mean
// ±50%.
const (
	editMin = 5 * kib
	editMax = 15 * kib
)

// object is one large object and its reference model: data holds the
// bytes the server must return. Only the owning caller touches it.
type object struct {
	id         int
	name       []byte
	structure  int
	preload    int
	data       []byte
	lastInsert int
}

func (o *object) insert(off int, p []byte) {
	o.data = append(o.data, p...) // grow by len(p)
	copy(o.data[off+len(p):], o.data[off:len(o.data)-len(p)])
	copy(o.data[off:], p)
}

func (o *object) delete(off, n int) {
	copy(o.data[off:], o.data[off+n:])
	o.data = o.data[:len(o.data)-n]
}

func (o *object) append(p []byte) { o.data = append(o.data, p...) }

// Live-size bounds: edits keep every object within ½–1½× its preload
// size however many operations a run completes.
func (o *object) minSize() int { return o.preload / 2 }
func (o *object) maxSize() int { return o.preload + o.preload/2 }

// newObjects builds the preload image of every object from the seed.
func newObjects(w *workload, seed int64) []*object {
	objs := make([]*object, w.objects)
	room := w.objectBytes // read-only workloads never grow an object
	if w.insertPct > 0 {
		room += w.objectBytes/2 + editMax
	}
	for i := range objs {
		o := &object{
			id:        i,
			name:      []byte(fmt.Sprintf("pb-%s-%d", w.name, i)),
			structure: i % numStructures,
			preload:   w.objectBytes,
			data:      make([]byte, w.objectBytes, room),
		}
		rand.New(rand.NewSource(seed*7919 + int64(i))).Read(o.data) //lobvet:ignore errdiscard — math/rand Read never fails
		objs[i] = o
	}
	return objs
}

// op is one request a caller sends.
type op struct {
	kind opKind
	obj  *object
	off  int
	n    int
	data []byte // insert payload
}

type block struct {
	obj *object
	off int
}

// caller is one logical client: it owns a disjoint set of objects, so
// its reference model is exact and its in-flight request never shares
// an object with another caller's.
type caller struct {
	w       *workload
	rng     *rand.Rand
	objs    []*object
	payload []byte // insert bytes are slices of this
	hot     []block

	scanObj, scanOff int
}

// newCallers splits objs among the workload's callers: caller c owns
// every object i with i % callers == c.
func newCallers(w *workload, objs []*object, seed int64) []*caller {
	n := w.callers()
	cs := make([]*caller, n)
	for c := range cs {
		cl := &caller{w: w, rng: rand.New(rand.NewSource(seed*104729 + int64(c)))}
		for i := c; i < len(objs); i += n {
			cl.objs = append(cl.objs, objs[i])
		}
		if w.insertPct > 0 {
			cl.payload = make([]byte, 1<<20)
			cl.rng.Read(cl.payload) //lobvet:ignore errdiscard — math/rand Read never fails
		}
		for len(cl.hot) < w.hotBlocks {
			b := cl.anyBlock()
			if !cl.isHot(b) {
				cl.hot = append(cl.hot, b)
			}
		}
		cs[c] = cl
	}
	return cs
}

func (c *caller) anyBlock() block {
	o := c.objs[c.rng.Intn(len(c.objs))]
	return block{o, c.w.readLen * c.rng.Intn(len(o.data)/c.w.readLen)}
}

func (c *caller) isHot(b block) bool {
	for _, h := range c.hot {
		if h == b {
			return true
		}
	}
	return false
}

func (c *caller) editSize() int { return editMin + c.rng.Intn(editMax-editMin+1) }

// next chooses the caller's next operation.
func (c *caller) next() op {
	w := c.w
	if w.scan {
		o := c.objs[c.scanObj]
		r := op{kind: opRead, obj: o, off: c.scanOff, n: w.readLen}
		if c.scanOff += w.readLen; c.scanOff >= len(o.data) {
			c.scanOff, c.scanObj = 0, (c.scanObj+1)%len(c.objs)
		}
		return r
	}
	if len(c.hot) > 0 {
		if c.rng.Float64() < w.hotFrac {
			b := c.hot[c.rng.Intn(len(c.hot))]
			return op{kind: opRead, obj: b.obj, off: b.off, n: w.readLen}
		}
		b := c.anyBlock()
		for c.isHot(b) {
			b = c.anyBlock()
		}
		return op{kind: opRead, obj: b.obj, off: b.off, n: w.readLen}
	}

	o := c.objs[c.rng.Intn(len(c.objs))]
	size := len(o.data)
	p := c.rng.Intn(100)
	if p < w.readPct {
		n := w.readLen
		if n == 0 {
			n = c.editSize()
		}
		return op{kind: opRead, obj: o, off: c.rng.Intn(size - n + 1), n: n}
	}
	// The §4.4 rule: a delete removes as many bytes as the object's
	// previous insert. It is a random walk, so an edit that would leave
	// the live-size bounds turns into the opposite edit; the bounds are
	// a preload apart, far wider than one edit, so the flip never
	// crosses the other bound.
	ins := c.editSize()
	del := o.lastInsert
	if del == 0 {
		del = c.editSize()
	}
	insert := p < w.readPct+w.insertPct
	if insert && size+ins > o.maxSize() {
		insert = false
	} else if !insert && size-del < o.minSize() {
		insert = true
	}
	if insert {
		at := c.rng.Intn(len(c.payload) - ins + 1)
		o.lastInsert = ins
		return op{kind: opInsert, obj: o, off: c.rng.Intn(size + 1), n: ins, data: c.payload[at : at+ins]}
	}
	return op{kind: opDelete, obj: o, off: c.rng.Intn(size - del + 1), n: del}
}

// check compares a server result with the model. Reads are checked
// before the model changes; edits are applied to the model and the size
// the server reported must match it.
func (r op) check(got []byte, size uint64) error {
	o := r.obj
	switch r.kind {
	case opRead:
		if !bytes.Equal(got, o.data[r.off:r.off+r.n]) {
			return fmt.Errorf("read %s [%d,+%d): bytes differ from the model", o.name, r.off, r.n)
		}
		return nil
	case opInsert:
		o.insert(r.off, r.data)
	case opDelete:
		o.delete(r.off, r.n)
	}
	if size != uint64(len(o.data)) {
		return fmt.Errorf("%v %s: server size %d, model %d", r.kind, o.name, size, len(o.data))
	}
	return nil
}

func (k opKind) String() string {
	switch k {
	case opRead:
		return "read"
	case opInsert:
		return "insert"
	}
	return "delete"
}
