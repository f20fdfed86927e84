package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"lobstore"
)

// TestEditsStayWithinBounds runs far more edits than a fast build could
// complete in a run and checks every object stays within ½–1½× its
// preload size and every operation is in range.
func TestEditsStayWithinBounds(t *testing.T) {
	w, err := findWorkload("edit-mix")
	if err != nil {
		t.Fatal(err)
	}
	objs := newObjects(w, 3)
	counts := map[opKind]int{}
	for _, c := range newCallers(w, objs, 3) {
		for i := 0; i < 20000; i++ {
			r := c.next()
			counts[r.kind]++
			size := len(r.obj.data)
			switch r.kind {
			case opRead, opDelete:
				if r.off < 0 || r.off+r.n > size {
					t.Fatalf("%v [%d,+%d) outside a %d-byte object", r.kind, r.off, r.n, size)
				}
			case opInsert:
				if r.off < 0 || r.off > size || len(r.data) != r.n {
					t.Fatalf("insert at %d of %d bytes into a %d-byte object", r.off, len(r.data), size)
				}
			}
			if r.n < editMin || r.n > editMax {
				t.Fatalf("%v of %d bytes, want %d..%d", r.kind, r.n, editMin, editMax)
			}
			if r.kind != opRead {
				if err := r.check(nil, uint64(size+sizeChange(r))); err != nil {
					t.Fatal(err)
				}
			}
			if n := len(r.obj.data); n < r.obj.minSize() || n > r.obj.maxSize() {
				t.Fatalf("object %d is %d bytes, outside [%d, %d]", r.obj.id, n, r.obj.minSize(), r.obj.maxSize())
			}
		}
	}
	total := counts[opRead] + counts[opInsert] + counts[opDelete]
	if got := float64(counts[opRead]) / float64(total); got < 0.38 || got > 0.42 {
		t.Errorf("read share %.3f, want 0.40", got)
	}
}

func sizeChange(r op) int {
	switch r.kind {
	case opInsert:
		return r.n
	case opDelete:
		return -r.n
	}
	return 0
}

// TestDeleteMatchesPreviousInsert checks the §4.4 rule on an object
// whose size is well inside its bounds.
func TestDeleteMatchesPreviousInsert(t *testing.T) {
	w, _ := findWorkload("edit-mix")
	objs := newObjects(w, 5)
	c := newCallers(w, objs, 5)[0]
	last := map[*object]int{}
	for i := 0; i < 5000; i++ {
		r := c.next()
		switch r.kind {
		case opInsert:
			last[r.obj] = r.n
		case opDelete:
			if n, ok := last[r.obj]; ok && n != r.n {
				t.Fatalf("delete of %d bytes after an insert of %d", r.n, n)
			}
		}
		if r.kind != opRead {
			if err := r.check(nil, uint64(len(r.obj.data)+sizeChange(r))); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestModelMatchesEngines applies the same appends, inserts and deletes
// to the reference model and to a real object of each structure, and
// compares the bytes.
func TestModelMatchesEngines(t *testing.T) {
	db, err := lobstore.Open(lobstore.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	payload := make([]byte, 64*kib)
	rng.Read(payload)
	for st, name := range structNames {
		spec := lobstore.ObjectSpec{Engine: name, LeafPages: int(engineParams[structESM]), Threshold: int(engineParams[structEOS])}
		obj, err := db.Create("model-"+name, spec)
		if err != nil {
			t.Fatal(err)
		}
		o := &object{structure: st, data: nil}
		for i := 0; i < 300; i++ {
			n := 1 + rng.Intn(12*kib)
			p := payload[:n]
			switch size := len(o.data); {
			case i%3 == 0 || size < n:
				if err := obj.Append(p); err != nil {
					t.Fatal(err)
				}
				o.append(p)
			case i%3 == 1:
				off := rng.Intn(size + 1)
				if err := obj.Insert(int64(off), p); err != nil {
					t.Fatal(err)
				}
				o.insert(off, p)
			default:
				off := rng.Intn(size - n + 1)
				if err := obj.Delete(int64(off), int64(n)); err != nil {
					t.Fatal(err)
				}
				o.delete(off, n)
			}
			if obj.Size() != int64(len(o.data)) {
				t.Fatalf("%s step %d: size %d, model %d", name, i, obj.Size(), len(o.data))
			}
		}
		got := make([]byte, obj.Size())
		if err := obj.Read(0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, o.data) {
			t.Fatalf("%s: object bytes differ from the model", name)
		}
	}
}

// TestSlotsNeverShareObjects checks that callers own disjoint objects,
// every object has an owner and a caller only ever targets its own, so
// the requests in flight at once never share an object.
func TestSlotsNeverShareObjects(t *testing.T) {
	for _, w := range workloads {
		objs := newObjects(w, 1)
		owner := map[*object]int{}
		callers := newCallers(w, objs, 1)
		if len(callers) != w.conns*w.slots || w.slots > maxSlots {
			t.Fatalf("%s: %d callers for %d conns x %d slots", w.name, len(callers), w.conns, w.slots)
		}
		for ci, c := range callers {
			for _, o := range c.objs {
				if prev, ok := owner[o]; ok {
					t.Fatalf("%s: object %d owned by callers %d and %d", w.name, o.id, prev, ci)
				}
				owner[o] = ci
			}
		}
		if len(owner) != len(objs) {
			t.Fatalf("%s: %d of %d objects have an owner", w.name, len(owner), len(objs))
		}
		for ci, c := range callers {
			for i := 0; i < 2000; i++ {
				r := c.next()
				if owner[r.obj] != ci {
					t.Fatalf("%s: caller %d targets object %d of caller %d", w.name, ci, r.obj.id, owner[r.obj])
				}
				if r.kind != opRead {
					_ = r.check(nil, uint64(len(r.obj.data)+sizeChange(r))) // keep the model moving
				}
			}
		}
	}
}

// TestHotSet checks read-4k's 128 KiB hot set and its 90% share.
func TestHotSet(t *testing.T) {
	w, _ := findWorkload("read-4k")
	callers := newCallers(w, newObjects(w, 2), 2)
	hotBytes, hot, n := 0, 0, 0
	for _, c := range callers {
		hotBytes += len(c.hot) * w.readLen
		for i := 0; i < 20000; i++ {
			r := c.next()
			if r.n != w.readLen || r.off%w.readLen != 0 || r.off+r.n > len(r.obj.data) {
				t.Fatalf("read [%d,+%d) of a %d-byte object", r.off, r.n, len(r.obj.data))
			}
			if c.isHot(block{r.obj, r.off}) {
				hot++
			}
			n++
		}
	}
	if hotBytes != 128*kib {
		t.Errorf("hot set %d bytes, want 128 KiB", hotBytes)
	}
	if share := float64(hot) / float64(n); share < 0.88 || share > 0.92 {
		t.Errorf("hot share %.3f, want 0.90", share)
	}
}

// TestCheckCatchesWrongResults makes sure a wrong byte or size fails.
func TestCheckCatchesWrongResults(t *testing.T) {
	o := &object{name: []byte("o"), data: []byte("abcdef")}
	if err := (op{kind: opRead, obj: o, off: 1, n: 3}).check([]byte("bcd"), 0); err != nil {
		t.Fatal(err)
	}
	if err := (op{kind: opRead, obj: o, off: 1, n: 3}).check([]byte("bcx"), 0); err == nil {
		t.Error("a wrong byte passed the check")
	}
	if err := (op{kind: opInsert, obj: o, off: 2, n: 2, data: []byte("XY")}).check(nil, 7); err == nil {
		t.Error("a wrong size passed the check")
	}
	if string(o.data) != "abXYcdef" {
		t.Errorf("model after insert = %q", o.data)
	}
}

// benchSpec is the part of BENCHMARK.json the program must agree with.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchSpec
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContextRecordsConfig keeps perfbench/context.json's server
// configuration equal to what a run uses, so a changed lobserve default
// shows as a diff there, and checks the workload list.
func TestContextRecordsConfig(t *testing.T) {
	b, err := os.ReadFile("context.json")
	if err != nil {
		t.Fatal(err)
	}
	var ctx struct {
		ServerConfig map[string]any            `json:"server_config"`
		Workloads    map[string]map[string]any `json:"workloads"`
		Predictions  []struct {
			Metrics []string `json:"metrics"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(b, &ctx); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(serverConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ctx.ServerConfig)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("server config\n got %s\nwant %s (context.json)", got, want)
	}
	c := loadBenchSpec(t)
	if len(c.Workloads) != len(workloads) || len(ctx.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in context.json, %d in the program", len(c.Workloads), len(ctx.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || ctx.Workloads[w.Name] == nil {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		} else if got := ctx.Workloads[w.Name]["backend"]; got != workloads[i].backend {
			t.Errorf("%s: backend %v in context.json, %q in the program", w.Name, got, workloads[i].backend)
		}
	}
	perLayer := map[string]bool{}
	for _, m := range c.PerLayer {
		perLayer[m.Name] = true
	}
	for _, p := range ctx.Predictions {
		for _, m := range p.Metrics {
			if !perLayer[m] {
				t.Errorf("prediction names %s, which is not a per-layer metric", m)
			}
		}
	}
}

// TestBenchSmoke runs each workload briefly, untraced and traced, end to
// end, and checks it reports exactly BENCHMARK.json's metrics.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("serves a file-backed store")
	}
	c := loadBenchSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := bench(w, 1, 400*time.Millisecond, trace, t.TempDir())
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%s: correct %v, %d attempted, %d failed", w.name, res.Correct, res.Attempted, res.Failed)
			}
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: missing metric %s", w.name, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s in %s, want %s", w.name, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v", w.name, m.Name, got.Value)
				}
			}
		}
	}
}
