package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"lobstore/internal/obs"
	"lobstore/internal/wire"
)

// clock is the benchmark's monotonic time base in nanoseconds.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// maxSlots bounds in-flight requests per connection: the low bits of a
// request id name its slot.
const maxSlots = 8

// slot is one caller's in-flight request on a connection.
type slot struct {
	idx    int
	caller *caller
	id     uint32
	op     op
	buf    []byte // read payload lands here, frame by frame
	got    int
	frames int
	size   uint64 // object size reported by OK
	failed bool

	start, encoded, sent, firstHdr int64
}

// stats is what one connection measured in one phase. Latencies are in
// nanoseconds, from the start of encoding to the last response frame.
type stats struct {
	ops, failed   int64
	reads, writes int64
	readBytes     int64
	writeBytes    int64
	readFrames    int64
	encodeNs      int64
	decodeNs      int64
	read, write   *obs.HDR
	byStruct      [numStructures][2]*obs.HDR // [structure][0 read, 1 write]
	last          int64
	// win splits the phase into windows of winNs from winStart; requests
	// completing after the last window (the drain) count only in totals.
	win      []window
	winStart int64
	winNs    int64
	spans    []reqSpans
	spanCap  int
}

// window is what completed successfully in one window of a phase.
type window struct {
	ops, bytes  int64
	read, write *obs.HDR
}

func newStats(start int64, windows int, winNs int64, spanCap int) *stats {
	s := &stats{read: obs.NewHDR(), write: obs.NewHDR(), winStart: start, winNs: winNs, spanCap: spanCap}
	for i := range s.byStruct {
		s.byStruct[i] = [2]*obs.HDR{obs.NewHDR(), obs.NewHDR()}
	}
	s.win = make([]window, windows)
	for i := range s.win {
		s.win[i] = window{read: obs.NewHDR(), write: obs.NewHDR()}
	}
	if spanCap > 0 {
		s.spans = make([]reqSpans, 0, spanCap)
	}
	return s
}

func (s *stats) merge(o *stats) {
	s.ops += o.ops
	s.failed += o.failed
	s.reads += o.reads
	s.writes += o.writes
	s.readBytes += o.readBytes
	s.writeBytes += o.writeBytes
	s.readFrames += o.readFrames
	s.encodeNs += o.encodeNs
	s.decodeNs += o.decodeNs
	s.read.Merge(o.read)
	s.write.Merge(o.write)
	for i := range s.byStruct {
		for j := range s.byStruct[i] {
			s.byStruct[i][j].Merge(o.byStruct[i][j])
		}
	}
	if o.last > s.last {
		s.last = o.last
	}
	for i := range s.win {
		w, ow := &s.win[i], &o.win[i]
		w.ops += ow.ops
		w.bytes += ow.bytes
		w.read.Merge(ow.read)
		w.write.Merge(ow.write)
	}
	s.spans = append(s.spans, o.spans...)
}

// reqSpans is one traced request: the req root span and its children
// wire.encode [start,encoded], net.send [encoded,sent], net.await
// [sent,firstHdr] and wire.decode [firstHdr,end]. For a streamed reply
// wire.decode covers every frame of the stream.
type reqSpans struct {
	conn                                uint8
	kind                                opKind
	reqID                               uint32
	start, encoded, sent, firstHdr, end int64
}

// conn drives one TCP connection from one goroutine: it keeps every
// slot's request in flight, reads frames as they arrive and sends a
// slot's next request as soon as its reply is complete.
type conn struct {
	idx   int
	nc    net.Conn
	br    *bufio.Reader
	wbuf  []byte
	small []byte
	slots []*slot
	seq   uint32
	// errMsg is the text of the last error reply.
	errMsg string
}

// dial opens one client connection with a slot per caller; bufLen
// sizes each slot's read buffer.
func dial(addr string, idx int, callers []*caller, bufLen int) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	c := &conn{
		idx:   idx,
		nc:    nc,
		br:    bufio.NewReaderSize(nc, 64<<10),
		wbuf:  make([]byte, 0, wire.HeaderSize+64+editMax),
		small: make([]byte, 512),
	}
	for i, cl := range callers {
		c.slots = append(c.slots, &slot{idx: i, caller: cl, buf: make([]byte, bufLen)})
	}
	return c, nil
}

func (c *conn) close() error { return c.nc.Close() }

// Wire parameters of each structure: ESM 4-page leaves, Starburst
// segments up to the allocator maximum, EOS segment threshold 16.
var (
	engineCodes  = [numStructures]byte{wire.EngineESM, wire.EngineStarburst, wire.EngineEOS}
	engineParams = [numStructures]uint32{4, 0, 16}
)

// send encodes and writes one request frame of type typ for s.op.
func (c *conn) send(s *slot, typ byte, st *stats) error {
	c.seq++
	s.id = c.seq*maxSlots + uint32(s.idx)
	s.got, s.frames, s.failed = 0, 0, false
	s.start = now()
	b := c.wbuf[:wire.HeaderSize]
	r := s.op
	switch typ {
	case wire.OpRead:
		b = wire.AppendReadReq(b, wire.ReadReq{Name: r.obj.name, Off: uint64(r.off), Len: uint32(r.n)})
	case wire.OpInsert:
		b = wire.AppendInsertReq(b, wire.InsertReq{Name: r.obj.name, Off: uint64(r.off), Data: r.data})
	case wire.OpDelete:
		b = wire.AppendDeleteReq(b, wire.DeleteReq{Name: r.obj.name, Off: uint64(r.off), Len: uint64(r.n)})
	case wire.OpStat:
		b = wire.AppendStatReq(b, wire.StatReq{Name: r.obj.name})
	case wire.OpAppend:
		b = wire.AppendAppendReq(b, wire.AppendReqMsg{Name: r.obj.name, Data: r.data})
	case wire.OpCreate:
		st := r.obj.structure
		b = wire.AppendCreateReq(b, wire.CreateReq{Name: r.obj.name, Engine: engineCodes[st], Param: engineParams[st]})
	}
	wire.PutHeader(b, wire.Header{Type: typ, ReqID: s.id, Len: uint32(len(b) - wire.HeaderSize)})
	if cap(b) > cap(c.wbuf) {
		c.wbuf = b[:0]
	}
	s.encoded = now()
	st.encodeNs += s.encoded - s.start
	if _, err := c.nc.Write(b); err != nil {
		return fmt.Errorf("send: %w", err)
	}
	s.sent = now()
	return nil
}

var opTypes = [...]byte{opRead: wire.OpRead, opInsert: wire.OpInsert, opDelete: wire.OpDelete}

// recv reads one response frame and returns its slot and whether the
// frame completed the reply.
func (c *conn) recv(st *stats) (*slot, bool, error) {
	hb, err := c.br.Peek(wire.HeaderSize)
	if err != nil {
		return nil, false, fmt.Errorf("recv: %w", err)
	}
	t := now()
	h, err := wire.ParseHeader(hb)
	if err != nil {
		return nil, false, err
	}
	if h.Len > wire.MaxPayload {
		return nil, false, fmt.Errorf("frame of %d bytes: %w", h.Len, wire.ErrTooLarge)
	}
	if _, err := c.br.Discard(wire.HeaderSize); err != nil {
		return nil, false, fmt.Errorf("recv: %w", err)
	}
	i := int(h.ReqID % maxSlots)
	if i >= len(c.slots) || c.slots[i].id != h.ReqID {
		return nil, false, fmt.Errorf("reply to unknown request %d", h.ReqID)
	}
	s := c.slots[i]
	if s.frames == 0 {
		s.firstHdr = t
	}
	s.frames++
	var p []byte
	switch h.Type {
	case wire.RespData:
		if s.got+int(h.Len) > len(s.buf) {
			return nil, false, fmt.Errorf("request %d: %d data bytes for a %d-byte read", h.ReqID, s.got+int(h.Len), len(s.buf))
		}
		if _, err := io.ReadFull(c.br, s.buf[s.got:s.got+int(h.Len)]); err != nil {
			return nil, false, fmt.Errorf("recv data: %w", err)
		}
		s.got += int(h.Len)
	case wire.RespOK, wire.RespStat, wire.RespErr:
		if int(h.Len) > cap(c.small) {
			c.small = make([]byte, h.Len)
		}
		p = c.small[:h.Len]
		if _, err := io.ReadFull(c.br, p); err != nil {
			return nil, false, fmt.Errorf("recv: %w", err)
		}
	default:
		return nil, false, fmt.Errorf("request %d: frame type %#x: %w", h.ReqID, h.Type, wire.ErrBadType)
	}
	switch h.Type {
	case wire.RespOK:
		ok, err := wire.ParseOKResp(p)
		if err != nil {
			return nil, false, err
		}
		s.size = ok.Size
	case wire.RespStat:
		sr, err := wire.ParseStatResp(p)
		if err != nil {
			return nil, false, err
		}
		s.size = sr.Size
	case wire.RespErr:
		s.failed = true
		c.errMsg = string(p)
	}
	if h.Last() {
		st.decodeNs += now() - s.firstHdr
	}
	return s, h.Last(), nil
}

// errMismatch marks a result that differs from the reference model.
var errMismatch = errors.New("result differs from the reference model")

// run keeps every slot's caller busy until deadline (ns on the
// benchmark clock), then lets the in-flight requests finish.
func (c *conn) run(deadline int64, st *stats) error {
	for _, s := range c.slots {
		s.op = s.caller.next()
		if err := c.send(s, opTypes[s.op.kind], st); err != nil {
			return err
		}
	}
	inflight := len(c.slots)
	for inflight > 0 {
		s, done, err := c.recv(st)
		if err != nil {
			return err
		}
		if !done {
			continue
		}
		end := now()
		if err := c.complete(s, end, st); err != nil {
			return err
		}
		st.last = end
		if end >= deadline {
			inflight--
			continue
		}
		s.op = s.caller.next()
		if err := c.send(s, opTypes[s.op.kind], st); err != nil {
			return err
		}
	}
	return nil
}

// complete accounts and checks one finished request.
func (c *conn) complete(s *slot, end int64, st *stats) error {
	r := s.op
	st.ops++
	if len(st.spans) < st.spanCap {
		st.spans = append(st.spans, reqSpans{conn: uint8(c.idx), kind: r.kind, reqID: s.id,
			start: s.start, encoded: s.encoded, sent: s.sent, firstHdr: s.firstHdr, end: end})
	}
	if s.failed {
		st.failed++
		return nil
	}
	lat := end - s.start
	var win *window
	if i := (end - st.winStart) / st.winNs; i >= 0 && i < int64(len(st.win)) {
		win = &st.win[i]
		win.ops++
	}
	w := 0
	if r.kind == opRead {
		if s.got != r.n {
			return fmt.Errorf("read %s: %d of %d bytes: %w", r.obj.name, s.got, r.n, errMismatch)
		}
		st.reads++
		st.readBytes += int64(r.n)
		st.readFrames += int64(s.frames)
		st.read.Observe(lat)
		if win != nil {
			win.bytes += int64(r.n)
			win.read.Observe(lat)
		}
	} else {
		w = 1
		st.writes++
		if r.kind == opInsert {
			st.writeBytes += int64(r.n)
			if win != nil {
				win.bytes += int64(r.n)
			}
		}
		st.write.Observe(lat)
		if win != nil {
			win.write.Observe(lat)
		}
	}
	st.byStruct[r.obj.structure][w].Observe(lat)
	if err := r.check(s.buf[:s.got], s.size); err != nil {
		return fmt.Errorf("%w: %w", err, errMismatch)
	}
	return nil
}

// call sends one request on slot 0 and waits for its whole reply; it is
// used outside measurement (preload, final check).
func (c *conn) call(typ byte, r op) (*slot, error) {
	s := c.slots[0]
	s.op = r
	var st stats
	if err := c.send(s, typ, &st); err != nil {
		return nil, err
	}
	for {
		got, done, err := c.recv(&st)
		if err != nil {
			return nil, err
		}
		if done && got == s {
			if s.failed {
				return nil, fmt.Errorf("%s %s: server error: %s", opName(typ), r.obj.name, c.errMsg)
			}
			return s, nil
		}
	}
}

func opName(typ byte) string {
	switch typ {
	case wire.OpCreate:
		return "create"
	case wire.OpAppend:
		return "append"
	case wire.OpStat:
		return "stat"
	case wire.OpRead:
		return "read"
	}
	return fmt.Sprintf("op %#x", typ)
}

// preload creates o on the server and appends its preload image.
func (c *conn) preload(o *object) error {
	if _, err := c.call(wire.OpCreate, op{obj: o}); err != nil {
		return err
	}
	const chunk = 256 * kib
	for off := 0; off < len(o.data); off += chunk {
		end := min(off+chunk, len(o.data))
		s, err := c.call(wire.OpAppend, op{obj: o, data: o.data[off:end]})
		if err != nil {
			return err
		}
		if s.size != uint64(end) {
			return fmt.Errorf("append %s: server size %d, want %d: %w", o.name, s.size, end, errMismatch)
		}
	}
	return nil
}

// verify checks o's final size with Stat and its bytes with reads.
func (c *conn) verify(o *object) error {
	s, err := c.call(wire.OpStat, op{obj: o})
	if err != nil {
		return err
	}
	if s.size != uint64(len(o.data)) {
		return fmt.Errorf("stat %s: server size %d, model %d: %w", o.name, s.size, len(o.data), errMismatch)
	}
	step := len(s.buf)
	for off := 0; off < len(o.data); off += step {
		r := op{kind: opRead, obj: o, off: off, n: min(step, len(o.data)-off)}
		s, err := c.call(wire.OpRead, r)
		if err != nil {
			return err
		}
		if s.got != r.n {
			return fmt.Errorf("read %s: %d of %d bytes: %w", o.name, s.got, r.n, errMismatch)
		}
		if err := r.check(s.buf[:s.got], 0); err != nil {
			return fmt.Errorf("%w: %w", err, errMismatch)
		}
	}
	return nil
}
