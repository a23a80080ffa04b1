package trace

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
)

// bytewiseNext is Reader.Next without the buffered fast path: the decoder as
// it stood before whole-record decoding, and still the one that words every
// error.
func bytewiseNext(r *Reader, e *Event) (bool, error) {
	if r.err != nil {
		return false, r.err
	}
	if r.next >= r.meta.NumEvents {
		return false, nil
	}
	return r.nextBytewise(e)
}

// compareDecoders decodes data twice — through Next and through the byte-wise
// path alone — and requires identical acceptance, events, consumed byte
// counts and error strings (record number and byte offset included) at every
// step. wrap adapts the underlying reader (nil for none).
func compareDecoders(t *testing.T, data []byte, wrap func(io.Reader) io.Reader) {
	t.Helper()
	open := func() (*Reader, error) {
		var r io.Reader = bytes.NewReader(data)
		if wrap != nil {
			r = wrap(r)
		}
		return NewReader(r)
	}
	fast, errF := open()
	slow, errS := open()
	if (errF == nil) != (errS == nil) || errF != nil && errF.Error() != errS.Error() {
		t.Fatalf("header: %v, then %v", errF, errS)
	}
	if errF != nil {
		return
	}
	for {
		var ef, es Event
		okF, errF := fast.Next(&ef)
		okS, errS := bytewiseNext(slow, &es)
		rec := slow.next
		if okF != okS || (errF == nil) != (errS == nil) {
			t.Fatalf("record %d: Next = (%v, %v), byte-wise = (%v, %v)", rec, okF, errF, okS, errS)
		}
		if errF != nil {
			if errF.Error() != errS.Error() {
				t.Fatalf("record %d: Next fails with %q, byte-wise with %q", rec, errF, errS)
			}
			return
		}
		if fast.off != slow.off || fast.next != slow.next {
			t.Fatalf("record %d: Next stands at byte %d after %d events, byte-wise at %d after %d", rec, fast.off, fast.next, slow.off, slow.next)
		}
		if !okF {
			return
		}
		if !reflect.DeepEqual(ef, es) {
			t.Fatalf("record %d: Next decoded %+v, byte-wise %+v", rec, ef, es)
		}
	}
}

// TestBufferedDecodeMatchesBytewise holds the whole-record fast path to the
// byte-wise decoder over the fuzz seed corpus, a trace long enough that
// records straddle refills of the reader's buffer (also fed a byte and a few
// bytes at a time), and every single-byte truncation and corruption of a
// 200-event file.
func TestBufferedDecodeMatchesBytewise(t *testing.T) {
	for _, data := range fuzzSeedCorpus() {
		compareDecoders(t, data, nil)
	}
	// A record is at least its nine one-byte fixed fields, so this many
	// events fill the buffer three times over.
	var long bytes.Buffer
	if err := WriteBinary(&long, randomStreamTrace(11, 3*readBufSize/9+1, 64)); err != nil {
		t.Fatal(err)
	}
	if long.Len() < 3*readBufSize {
		t.Fatalf("long trace is only %d bytes", long.Len())
	}
	compareDecoders(t, long.Bytes(), nil)
	compareDecoders(t, long.Bytes(), iotest.OneByteReader)
	compareDecoders(t, long.Bytes(), iotest.DataErrReader)
	compareDecoders(t, long.Bytes(), func(r io.Reader) io.Reader { return iotest.TimeoutReader(iotest.HalfReader(r)) })

	// Records only a hand-encoder produces: each trips one of the checks
	// the fast path must apply before it accepts a record.
	big := uint64(1)<<62 + 1
	for _, bad := range [][]uint64{
		{0, 1, big, 0, 0, 0, 0, 5},                 // bytes
		{0, 1, 8, 0, 0, big, 0, 5},                 // gap
		{0, 1, 8, 0, 0, 0, big, big},               // ref_inject
		{0, 1, 8, 0, 0, 0, 0, big},                 // ref_arrive
		{0, 1, 8, 0, 0, 0, 0, 5, 1, 0, 1, 0, 1, 0}, // three deps, one earlier event
		{0, 1, 8, 0, 0, 0, 0, 5, 0, 0},             // dep on itself
		{0, 1, 8, 0, 0, 0, 0, 5, 1<<32 + 1, 0},     // dep delta that wraps to a valid id
		{0, 1, 8, 0, 0, 0, 0, 5, 1, 99},            // dep class
		{0, 1, 8, 7, 0, 0, 0, 5},                   // class
	} {
		var r rawTrace
		r.header(4, 2, "w")
		r.event(0, 1, 8, 0, 0, 0, 0, 5)
		r.event(bad[0], bad[1], bad[2], bad[3], bad[4], bad[5], bad[6], bad[7], bad[8:]...)
		if _, err := ReadBinary(bytes.NewReader(r.buf.Bytes())); err == nil {
			t.Fatalf("hand-encoded record %v accepted", bad)
		}
		compareDecoders(t, r.buf.Bytes(), nil)
	}

	var buf bytes.Buffer
	if err := WriteBinary(&buf, randomStreamTrace(7, 200, 8)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	step := 1
	if testing.Short() {
		step = 3
	}
	for cut := 0; cut < len(raw); cut += step {
		compareDecoders(t, raw[:cut], nil)
	}
	// 0xff flips every bit; 0x80 alone turns a one-byte varint into an
	// over-long one and ends a multi-byte one early.
	for _, mask := range []byte{0xff, 0x80, 0x01} {
		for i := 0; i < len(raw); i += step {
			bad := append([]byte(nil), raw...)
			bad[i] ^= mask
			compareDecoders(t, bad, nil)
		}
	}
}

// BenchmarkReaderNext measures one streamed decode pass, per event.
func BenchmarkReaderNext(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, randomStreamTrace(3, 1<<16, 64)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		var e Event
		start := done
		for ; done < b.N; done++ {
			if ok, err := r.Next(&e); !ok || err != nil {
				break
			}
		}
		if done == start {
			b.Fatal("decoded nothing")
		}
	}
}
