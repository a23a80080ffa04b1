package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Binary trace format
//
//	magic   "SCTM"            4 bytes
//	version uvarint           currently 1
//	nodes   uvarint
//	wlen    uvarint, workload bytes
//	makespan uvarint
//	nevents uvarint
//	then per event:
//	  src, dst, bytes, class, kind, gap  (uvarints)
//	  refInject, refArrive               (uvarints)
//	  ndeps uvarint, then per dep: onDelta uvarint (self-on), class uvarint
//
// Dependency IDs are delta-encoded against the event's own ID, which keeps
// the common "depends on a recent event" case to one or two bytes.
//
// Both directions have a single implementation: the streaming Reader/Writer
// in stream.go. WriteBinary and ReadBinary below are the materialized
// convenience forms layered on top of them.

const (
	magic         = "SCTM"
	formatVersion = 1
)

// WriteBinary serializes the trace to w in the compact binary format. The
// trace is validated as it encodes — NewWriter checks the header invariants
// and Append checks each event — so an invalid trace fails at the offending
// record without a separate up-front Validate pass.
func WriteBinary(w io.Writer, t *Trace) error {
	sw, err := NewWriter(w, Meta{
		Nodes:       t.Nodes,
		Workload:    t.Workload,
		RefMakespan: t.RefMakespan,
		NumEvents:   len(t.Events),
	})
	if err != nil {
		return err
	}
	for i := range t.Events {
		if err := sw.Append(&t.Events[i]); err != nil {
			return err
		}
	}
	return sw.Close()
}

// ReadBinary deserializes a trace written by WriteBinary. Every record is
// validated as it decodes, so a corrupt file fails with the offending record
// index and byte offset instead of a bare decode error.
func ReadBinary(r io.Reader) (*Trace, error) {
	sr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	m := sr.Meta()
	t := &Trace{
		Nodes:       m.Nodes,
		Workload:    m.Workload,
		RefMakespan: m.RefMakespan,
		Events:      make([]Event, m.NumEvents),
	}
	// All dependency edges land in one shared arena instead of one slice
	// allocation per event, keeping the decoder's allocation count constant
	// in the event count. Events get subslices of the arena only after the
	// read completes: appending while handing out subslices would leave
	// earlier events pointing into abandoned backing arrays. depCounts
	// remembers each event's edge count for that final assignment.
	arena := make([]Dep, 0, 2*m.NumEvents)
	depCounts := make([]uint32, m.NumEvents)
	for i := range t.Events {
		ok, err := sr.Next(&t.Events[i])
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("trace: stream ended after %d of %d declared events", i, m.NumEvents)
		}
		depCounts[i] = uint32(len(t.Events[i].Deps))
		arena = append(arena, t.Events[i].Deps...)
		t.Events[i].Deps = nil
	}
	off := 0
	for i := range t.Events {
		n := int(depCounts[i])
		if n > 0 {
			// Full-capacity subslices, so an append through one event's
			// Deps can never silently overwrite its neighbor's.
			t.Events[i].Deps = arena[off : off+n : off+n]
		}
		off += n
	}
	return t, nil
}

// SaveFile writes the binary format to path.
func SaveFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := WriteBinary(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads the binary format from path.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	return ReadBinary(f)
}

// WriteJSON serializes the trace as indented JSON, for inspection and
// interchange with plotting tools.
func WriteJSON(w io.Writer, t *Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}
