package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// This file is the out-of-core half of the trace package: incremental
// decode/encode of the binary format, so a trace never has to be
// materialized to be produced, inspected, or replayed. The Source/Iterator
// pair is the contract the streaming replay engines in internal/core
// consume; FileSource streams from disk with O(1) resident state per pass —
// one Reader and its 64 KiB buffer, kept from one closed pass to the next —
// and a resident *Trace is itself a Source, so both execution paths share one
// consumer implementation.

// Meta is the trace header: everything known about a trace before any event
// has been decoded.
type Meta struct {
	// Nodes is the endpoint count of the captured system.
	Nodes int
	// Workload labels the run for reports.
	Workload string
	// RefMakespan is the completion time of the capture run.
	RefMakespan sim.Tick
	// NumEvents is the total event count declared by the header.
	NumEvents int
}

// validate checks the header invariants shared by reader and writer.
func (m Meta) validate() error {
	if m.Nodes < 1 {
		return fmt.Errorf("trace: nodes=%d must be ≥1", m.Nodes)
	}
	if len(m.Workload) > 1<<16 {
		return fmt.Errorf("trace: implausible workload name length %d", len(m.Workload))
	}
	if m.RefMakespan < 0 {
		return fmt.Errorf("trace: negative makespan %d", m.RefMakespan)
	}
	if m.NumEvents < 0 || m.NumEvents > 1<<31 {
		return fmt.Errorf("trace: implausible event count %d", m.NumEvents)
	}
	return nil
}

// Iterator decodes one sequential pass over a trace, in event-ID order.
type Iterator interface {
	// Next decodes the next event into *e and reports whether one was
	// available. The Deps slice may be reused by the following Next call:
	// consumers that retain dependency edges across calls must copy them.
	// Once Next has returned false it keeps doing so, with the same error.
	Next(e *Event) (bool, error)
	// Close releases the pass's underlying resources (file handles). A
	// second Close does nothing.
	Close() error
}

// Source yields repeated sequential decode passes over a stored trace. The
// replay engines take several passes per run (seeding, scheduling, replay),
// so a Source must support any number of Pass calls; passes are independent
// and may be open concurrently (the sharded engine opens one per shard). A
// pass yields only events validateEvent accepts, or an error.
type Source interface {
	// Meta returns the trace header without decoding any events.
	Meta() Meta
	// Pass opens a fresh iterator positioned before the first event.
	Pass() (Iterator, error)
}

// Digester is an optional Source extension: a stable, collision-resistant
// identity for the trace's *content*, usable as a cache key for results of
// replaying the source. Both provided sources implement it: FileSource
// hashes the raw file bytes (lazily, once), and *Trace hashes its canonical
// binary encoding — so a file written by Writer digests identically to the
// in-memory trace it encodes. A digest mismatch between
// two representations of equal content only costs a cache miss, never a
// wrong hit.
type Digester interface {
	// Digest returns an identity of the form "sha256:<hex>".
	Digest() (string, error)
}

// validateEvent checks the per-event structural invariants every consumer
// relies on. It is the single checkpoint shared by Trace.Validate, the
// streaming Reader, and the streaming Writer, so the three paths accept
// exactly the same traces.
func validateEvent(nodes int, e *Event) error {
	if e.Src < 0 || e.Src >= nodes || e.Dst < 0 || e.Dst >= nodes {
		return fmt.Errorf("trace: event %d endpoints (%d->%d) out of [0,%d)", e.ID, e.Src, e.Dst, nodes)
	}
	if e.Bytes <= 0 {
		return fmt.Errorf("trace: event %d has non-positive size %d", e.ID, e.Bytes)
	}
	if e.Class >= noc.NumClasses {
		return fmt.Errorf("trace: event %d has invalid class %d", e.ID, e.Class)
	}
	if e.Kind >= numKinds {
		return fmt.Errorf("trace: event %d has invalid kind %d", e.ID, e.Kind)
	}
	if e.Gap < 0 {
		return fmt.Errorf("trace: event %d has negative gap %d", e.ID, e.Gap)
	}
	for _, d := range e.Deps {
		if d.On == None || d.On >= e.ID {
			return fmt.Errorf("trace: event %d depends on non-earlier event %d", e.ID, d.On)
		}
		if d.Class >= numDepClasses {
			return fmt.Errorf("trace: event %d has invalid dep class %d", e.ID, d.Class)
		}
	}
	if e.RefArrive < e.RefInject {
		return fmt.Errorf("trace: event %d arrives (%d) before injection (%d)", e.ID, e.RefArrive, e.RefInject)
	}
	return nil
}

// maxTick bounds uvarint-decoded time and size fields so casting to a signed
// type can never wrap negative on adversarial input.
const maxTick = uint64(1) << 62

// eventFieldNames names the fixed per-event fields, in wire order, for decode
// error messages.
var eventFieldNames = [9]string{"src", "dst", "bytes", "class", "kind", "gap", "ref_inject", "ref_arrive", "ndeps"}

// Reader incrementally decodes the binary trace format: the header is read
// at construction, then Next yields one validated event per call. Resident
// state is O(1) plus the current event's dependency list, independent of
// trace length. Decode errors carry the failing record number and byte
// offset, so a corrupt multi-gigabyte file points at the damage instead of
// yielding a bare varint error.
type Reader struct {
	br   *bufio.Reader
	meta Meta
	off  int64 // bytes consumed so far
	next int   // events decoded so far
	deps []Dep // reusable dependency buffer handed out via Event.Deps
	// depFields holds the fast path's (delta, class) pairs of one record.
	depFields []uint64
	err       error // sticky first error
	// readErr is the read error (io.EOF included) nextBuffered met while
	// topping up the buffer. bufio forgets an error once it has reported it,
	// so readByte hands it out when the buffered bytes run out.
	readErr error
	// win is what bufio held when nextBuffered last looked; the first used
	// bytes of it are decoded but not yet discarded from bufio.
	win  []byte
	used int
}

// readBufSize is the Reader's buffer. Next decodes whole records in place
// out of it and leaves only a record that straddles a refill to the byte-wise
// decoder, so a larger buffer means fewer refills and fewer fallbacks.
const readBufSize = 64 << 10

// NewReader consumes and validates the header of a binary trace stream.
func NewReader(r io.Reader) (*Reader, error) {
	sr := &Reader{br: bufio.NewReaderSize(nil, readBufSize)}
	if err := sr.reset(r); err != nil {
		return nil, err
	}
	return sr, nil
}

// reset points the Reader at the start of a new stream, keeping its buffers,
// and consumes and validates the stream's header.
func (r *Reader) reset(src io.Reader) error {
	r.br.Reset(src)
	*r = Reader{br: r.br, deps: r.deps[:0], depFields: r.depFields[:0]}
	return r.readHeader()
}

// Meta returns the decoded header.
func (r *Reader) Meta() Meta { return r.meta }

// headerErrf wraps a header-stage decode failure with the byte offset.
func (r *Reader) headerErrf(format string, args ...any) error {
	return fmt.Errorf("trace: header (byte offset %d): %s", r.off, fmt.Sprintf(format, args...))
}

// recordErrf wraps a per-event decode failure with the 1-based record number
// (the event ID being decoded) and the byte offset where decoding stood.
func (r *Reader) recordErrf(format string, args ...any) error {
	err := fmt.Errorf("trace: record %d (byte offset %d): %s", r.next+1, r.off, fmt.Sprintf(format, args...))
	r.err = err
	return err
}

// readByte reads one byte, counting it toward the offset.
func (r *Reader) readByte() (byte, error) {
	if r.readErr != nil && r.br.Buffered() == 0 {
		return 0, r.readErr
	}
	b, err := r.br.ReadByte()
	if err == nil {
		r.off++
	}
	return b, err
}

// readUvarint is binary.ReadUvarint with offset accounting.
func (r *Reader) readUvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b, err := r.readByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if b < 0x80 {
			if i == 9 && b > 1 {
				return 0, fmt.Errorf("uvarint overflows 64 bits")
			}
			return x | uint64(b)<<s, nil
		}
		if i >= 9 {
			return 0, fmt.Errorf("uvarint overflows 64 bits")
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

func (r *Reader) readHeader() error {
	head := make([]byte, len(magic))
	n, err := io.ReadFull(r.br, head)
	r.off += int64(n)
	if err != nil {
		return r.headerErrf("reading magic: %v", err)
	}
	if string(head) != magic {
		return r.headerErrf("bad magic %q", head)
	}
	getU := func(what string) (uint64, error) {
		v, err := r.readUvarint()
		if err != nil {
			return 0, r.headerErrf("reading %s: %v", what, err)
		}
		return v, nil
	}
	ver, err := getU("version")
	if err != nil {
		return err
	}
	if ver != formatVersion {
		return r.headerErrf("unsupported format version %d", ver)
	}
	nodes, err := getU("nodes")
	if err != nil {
		return err
	}
	wlen, err := getU("workload length")
	if err != nil {
		return err
	}
	if wlen > 1<<16 {
		return r.headerErrf("implausible workload name length %d", wlen)
	}
	wl := make([]byte, wlen)
	n, err = io.ReadFull(r.br, wl)
	r.off += int64(n)
	if err != nil {
		return r.headerErrf("reading workload name: %v", err)
	}
	makespan, err := getU("makespan")
	if err != nil {
		return err
	}
	nevents, err := getU("event count")
	if err != nil {
		return err
	}
	if nodes > 1<<31 || makespan > maxTick {
		return r.headerErrf("implausible header field (nodes=%d makespan=%d)", nodes, makespan)
	}
	r.meta = Meta{
		Nodes:       int(nodes),
		Workload:    string(wl),
		RefMakespan: sim.Tick(makespan),
		NumEvents:   int(nevents),
	}
	if err := r.meta.validate(); err != nil {
		return r.headerErrf("%v", err)
	}
	return nil
}

// Next decodes the next event. The event's Deps slice aliases a buffer owned
// by the reader and is only valid until the following Next call.
func (r *Reader) Next(e *Event) (bool, error) {
	if r.err != nil {
		return false, r.err
	}
	if r.next >= r.meta.NumEvents {
		// The format is length-prefixed; trailing bytes are tolerated so a
		// trace can be embedded in a larger stream.
		return false, nil
	}
	if r.nextBuffered(e) {
		return true, nil
	}
	r.settle()
	return r.nextBytewise(e)
}

// minPeek is how many bytes nextBuffered asks bufio to hold before it tries a
// record: several typical records, far below the buffer size.
const minPeek = 256

// uvarintAt decodes the uvarint at buf[pos:], returning the position after
// it, or -1 when buf ends inside it or it overflows 64 bits.
func uvarintAt(buf []byte, pos int) (uint64, int) {
	if pos < len(buf) && buf[pos] < 0x80 {
		return uint64(buf[pos]), pos + 1
	}
	v, w := binary.Uvarint(buf[pos:])
	if w <= 0 {
		return 0, -1
	}
	return v, pos + w
}

// uvarintsAt decodes len(out) consecutive uvarints from buf[pos:] into out
// and returns the position after them, or -1 as uvarintAt does. The one- to
// three-byte cases, nearly every field of a real trace, are decoded inline.
func uvarintsAt(buf []byte, pos int, out []uint64) int {
	for j := range out {
		if pos+3 <= len(buf) {
			b0, b1, b2 := uint64(buf[pos]), uint64(buf[pos+1]), uint64(buf[pos+2])
			switch {
			case b0 < 0x80:
				out[j], pos = b0, pos+1
				continue
			case b1 < 0x80:
				out[j], pos = b0&0x7f|b1<<7, pos+2
				continue
			case b2 < 0x80:
				out[j], pos = b0&0x7f|(b1&0x7f)<<7|b2<<14, pos+3
				continue
			}
		}
		if out[j], pos = uvarintAt(buf, pos); pos < 0 {
			return -1
		}
	}
	return pos
}

// nextBuffered is Next's fast path: it decodes one whole record out of the
// bytes bufio already holds, which it consumes a window at a time. It
// applies exactly nextBytewise's checks, but on any irregularity — the
// buffer ends inside the record, an over-long varint, a failed check — it
// consumes nothing and reports false, so nextBytewise re-decodes the record
// and stays the sole owner of error text, record numbers and byte offsets.
func (r *Reader) nextBuffered(e *Event) bool {
	if len(r.win)-r.used < minPeek {
		r.settle()
		if r.readErr == nil {
			// Top up, so that a record rarely straddles the refill.
			if _, err := r.br.Peek(minPeek); err != nil {
				r.readErr = err
			}
		}
		r.win, _ = r.br.Peek(r.br.Buffered())
	}
	buf := r.win[r.used:]
	id := EventID(r.next + 1)
	var fields [9]uint64
	pos := uvarintsAt(buf, 0, fields[:])
	if pos < 0 {
		return false
	}
	ndeps := fields[8]
	if fields[2] > maxTick || fields[5] > maxTick || fields[6] > maxTick || fields[7] > maxTick || ndeps > uint64(r.next)+1 {
		return false
	}
	r.deps = r.deps[:0]
	if ndeps > 0 {
		if 2*ndeps > uint64(len(buf)-pos) { // (delta, class) pairs of a byte or more
			return false
		}
		r.depFields = slices.Grow(r.depFields[:0], int(2*ndeps))[:2*ndeps]
		if pos = uvarintsAt(buf, pos, r.depFields); pos < 0 {
			return false
		}
		for k := 0; k < len(r.depFields); k += 2 {
			delta := r.depFields[k]
			if delta == 0 || delta >= uint64(id) {
				return false
			}
			r.deps = append(r.deps, Dep{On: id - EventID(delta), Class: DepClass(r.depFields[k+1])})
		}
	}
	r.fill(e, id, &fields)
	if validateEvent(r.meta.Nodes, e) != nil {
		return false
	}
	r.used += pos
	r.off += int64(pos)
	r.next++
	return true
}

// settle discards from bufio the bytes nextBuffered has decoded, so that
// bufio stands where decoding does.
func (r *Reader) settle() {
	r.br.Discard(r.used)
	r.win, r.used = nil, 0
}

// fill writes the event's decoded fixed fields and r.deps into *e, field by
// field: every field of Event is assigned.
func (r *Reader) fill(e *Event, id EventID, fields *[9]uint64) {
	e.ID = id
	e.Src, e.Dst, e.Bytes = int(fields[0]), int(fields[1]), int(fields[2])
	e.Class, e.Kind = noc.Class(fields[3]), Kind(fields[4])
	e.Gap, e.RefInject, e.RefArrive = sim.Tick(fields[5]), sim.Tick(fields[6]), sim.Tick(fields[7])
	e.Deps = nil
	if len(r.deps) > 0 {
		e.Deps = r.deps
	}
}

// nextBytewise decodes one record a byte at a time, tracking the offset of
// every byte so that a failure names the record and where decoding stood.
func (r *Reader) nextBytewise(e *Event) (bool, error) {
	id := EventID(r.next + 1)
	var fields [9]uint64
	names := &eventFieldNames
	for j := range fields {
		v, err := r.readUvarint()
		if err != nil {
			return false, r.recordErrf("reading %s: %v", names[j], err)
		}
		fields[j] = v
	}
	for _, j := range [...]int{2, 5, 6, 7} { // bytes, gap, ref_inject, ref_arrive
		if fields[j] > maxTick {
			return false, r.recordErrf("implausible %s %d", names[j], fields[j])
		}
	}
	ndeps := fields[8]
	if ndeps > uint64(r.next)+1 {
		return false, r.recordErrf("event claims %d deps", ndeps)
	}
	r.deps = r.deps[:0]
	for k := uint64(0); k < ndeps; k++ {
		delta, err := r.readUvarint()
		if err != nil {
			return false, r.recordErrf("reading dep id: %v", err)
		}
		if delta == 0 || delta >= uint64(id) {
			return false, r.recordErrf("invalid dep delta %d", delta)
		}
		cls, err := r.readUvarint()
		if err != nil {
			return false, r.recordErrf("reading dep class: %v", err)
		}
		r.deps = append(r.deps, Dep{On: id - EventID(delta), Class: DepClass(cls)})
	}
	r.fill(e, id, &fields)
	if err := validateEvent(r.meta.Nodes, e); err != nil {
		return false, r.recordErrf("%v", err)
	}
	r.next++
	return true, nil
}

// Close implements Iterator; the Reader does not own its io.Reader.
func (r *Reader) Close() error { return nil }

// FileSource streams passes over a binary trace file on disk. Each Pass
// opens the file independently, so concurrent passes (one per shard) are
// safe. The header is decoded once at construction, and every consumer
// sizes its state from it, so a pass refuses a file whose header has changed
// since. A file rewritten under the same header is not detected: that takes
// a check of the content, which no pass makes.
type FileSource struct {
	path string
	meta Meta

	digestOnce sync.Once
	digest     string
	digestErr  error

	// free holds the Readers of closed passes, each with its buffer, for
	// the passes opened after them.
	mu   sync.Mutex
	free []*Reader
}

// NewFileSource validates the file's header and returns a reusable source.
func NewFileSource(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return &FileSource{path: path, meta: r.Meta()}, nil
}

// Meta returns the header decoded at construction.
func (s *FileSource) Meta() Meta { return s.meta }

// Pass opens a fresh decode pass over the file: a Reader, recycled from a
// closed pass, over a file handle of the pass's own. A header other than the
// one NewFileSource read is an error naming both.
func (s *FileSource) Pass() (Iterator, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	p := &filePass{src: s, f: f, r: s.reader()}
	if err := p.r.reset(f); err != nil {
		p.Close()
		return nil, fmt.Errorf("%w (in %s)", err, s.path)
	}
	if got := p.r.meta; got != s.meta {
		p.Close()
		return nil, fmt.Errorf("trace: %s changed since it was opened: header %+v, was %+v", s.path, got, s.meta)
	}
	return p, nil
}

// reader takes the Reader of a closed pass, or makes one.
func (s *FileSource) reader() *Reader {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k := len(s.free); k > 0 {
		r := s.free[k-1]
		s.free = s.free[:k-1]
		return r
	}
	return &Reader{br: bufio.NewReaderSize(nil, readBufSize)}
}

// filePass is a FileSource pass: a Reader over the pass's file.
type filePass struct {
	src *FileSource
	f   *os.File
	r   *Reader // nil once closed
}

// Next implements Iterator. The event's Deps alias the Reader's buffer and
// are only valid until the following Next call.
func (p *filePass) Next(e *Event) (bool, error) {
	if p.r == nil {
		return false, fmt.Errorf("trace: Next on a closed pass")
	}
	return p.r.Next(e)
}

// Close implements Iterator: it gives the Reader back to the source and
// closes the file.
func (p *filePass) Close() error {
	if p.r == nil {
		return nil
	}
	p.r.br.Reset(nil) // drop the file
	p.src.mu.Lock()
	p.src.free = append(p.src.free, p.r)
	p.src.mu.Unlock()
	p.r = nil
	return p.f.Close()
}

// Digest implements Digester by hashing the raw file bytes. The hash is
// computed on first use and cached; a multi-gigabyte trace pays one
// sequential read, far below a single replay pass's decode cost.
func (s *FileSource) Digest() (string, error) {
	s.digestOnce.Do(func() {
		f, err := os.Open(s.path)
		if err != nil {
			s.digestErr = fmt.Errorf("trace: %w", err)
			return
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			s.digestErr = fmt.Errorf("trace: digesting %s: %w", s.path, err)
			return
		}
		s.digest = "sha256:" + hex.EncodeToString(h.Sum(nil))
	})
	return s.digest, s.digestErr
}

// NewMemSource returns the trace as a Source: a resident trace is one. It
// remains because bench/ names it (DESIGN.md §12).
func NewMemSource(tr *Trace) Source { return tr }

// Meta derives the header from the materialized trace.
func (t *Trace) Meta() Meta {
	return Meta{
		Nodes:       t.Nodes,
		Workload:    t.Workload,
		RefMakespan: t.RefMakespan,
		NumEvents:   len(t.Events),
	}
}

// Pass opens an iterator over the trace's event slice once Validate accepts
// the whole trace. A file's decoder checks every event it reads, so either
// kind of source hands out only valid events, and no consumer checks a
// resident trace itself: a malformed one is an error at its first pass.
func (t *Trace) Pass() (Iterator, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &memIter{tr: t}, nil
}

type memIter struct {
	tr  *Trace
	pos int
}

func (it *memIter) Next(e *Event) (bool, error) {
	if it.pos >= len(it.tr.Events) {
		return false, nil
	}
	*e = it.tr.Events[it.pos]
	it.pos++
	return true, nil
}

func (it *memIter) Close() error { return nil }

// Digest implements Digester by streaming the canonical binary encoding
// through the hash — no materialized copy — so it matches the Digest of a
// file written by Writer for the same trace. It is recomputed on every call:
// a session's own capture is keyed by its CaptureKey and never digested.
func (t *Trace) Digest() (string, error) {
	h := sha256.New()
	w, err := NewWriter(h, t.Meta())
	if err != nil {
		return "", err
	}
	for i := range t.Events {
		e := t.Events[i] // Append may assign the ID; never mutate the trace
		if err := w.Append(&e); err != nil {
			return "", err
		}
	}
	if err := w.Close(); err != nil {
		return "", err
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// Writer incrementally encodes the binary trace format: the header (with the
// final event count) is written at construction, then Append encodes one
// validated event at a time. Nothing is buffered beyond bufio, so a trace of
// any length streams to disk with O(1) resident memory — this is what
// `tracegen -huge` writes through.
type Writer struct {
	bw     *bufio.Writer
	meta   Meta
	next   int // events appended so far
	closed bool
	// scratch is the uvarint encode buffer. It lives on the Writer rather
	// than putU's frame because a frame-local buffer escapes through
	// bufio's underlying io.Writer, costing one heap allocation per field.
	scratch [10]byte
	// buf accumulates one whole encoded event, so Append pays a single
	// bufio.Write instead of one per field.
	buf []byte
}

// NewWriter validates the header and writes it. The event count must be
// known up front — the format is length-prefixed.
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	if err := meta.validate(); err != nil {
		return nil, err
	}
	sw := &Writer{bw: bufio.NewWriter(w), meta: meta}
	if _, err := sw.bw.WriteString(magic); err != nil {
		return nil, err
	}
	for _, v := range []uint64{formatVersion, uint64(meta.Nodes)} {
		if err := sw.putU(v); err != nil {
			return nil, err
		}
	}
	if err := sw.putU(uint64(len(meta.Workload))); err != nil {
		return nil, err
	}
	if _, err := sw.bw.WriteString(meta.Workload); err != nil {
		return nil, err
	}
	for _, v := range []uint64{uint64(meta.RefMakespan), uint64(meta.NumEvents)} {
		if err := sw.putU(v); err != nil {
			return nil, err
		}
	}
	return sw, nil
}

func (w *Writer) putU(v uint64) error {
	n := 0
	for v >= 0x80 {
		w.scratch[n] = byte(v) | 0x80
		v >>= 7
		n++
	}
	w.scratch[n] = byte(v)
	_, err := w.bw.Write(w.scratch[:n+1])
	return err
}

// Append validates and encodes one event. The event's ID must be the next
// dense ID (or zero, in which case it is assigned).
func (w *Writer) Append(e *Event) error {
	if w.closed {
		return fmt.Errorf("trace: append to closed writer")
	}
	if w.next >= w.meta.NumEvents {
		return fmt.Errorf("trace: append beyond declared event count %d", w.meta.NumEvents)
	}
	want := EventID(w.next + 1)
	if e.ID == None {
		e.ID = want
	}
	if e.ID != want {
		return fmt.Errorf("trace: event %d appended out of order, want id %d", e.ID, want)
	}
	if err := validateEvent(w.meta.Nodes, e); err != nil {
		return err
	}
	b := w.buf[:0]
	for _, v := range [...]uint64{
		uint64(e.Src), uint64(e.Dst), uint64(e.Bytes),
		uint64(e.Class), uint64(e.Kind), uint64(e.Gap),
		uint64(e.RefInject), uint64(e.RefArrive),
		uint64(len(e.Deps)),
	} {
		b = appendUvarint(b, v)
	}
	for _, d := range e.Deps {
		b = appendUvarint(b, uint64(e.ID-d.On))
		b = appendUvarint(b, uint64(d.Class))
	}
	w.buf = b
	if _, err := w.bw.Write(b); err != nil {
		return err
	}
	w.next++
	return nil
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// Close checks the declared event count was reached and flushes. It does not
// close the underlying writer.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.next != w.meta.NumEvents {
		return fmt.Errorf("trace: writer closed after %d of %d declared events", w.next, w.meta.NumEvents)
	}
	return w.bw.Flush()
}
