package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// fuzzSeedCorpus returns representative encodings: valid traces of several
// shapes plus systematically damaged variants, so the fuzzer starts at the
// format's interesting boundaries instead of random bytes.
func fuzzSeedCorpus() [][]byte {
	var corpus [][]byte
	add := func(tr *Trace) {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			panic(err)
		}
		corpus = append(corpus, buf.Bytes())
	}
	add(tinyTrace())
	add(&Trace{Nodes: 1, Workload: "", RefMakespan: 0}) // empty trace
	add(chainTrace(40, 1))
	add(chainTrace(40, 30)) // long dependency spans
	add(randomStreamTrace(7, 120, 8))

	// Damaged variants of the tiny encoding.
	var tiny bytes.Buffer
	if err := WriteBinary(&tiny, tinyTrace()); err != nil {
		panic(err)
	}
	raw := tiny.Bytes()
	corpus = append(corpus, raw[:len(raw)/2])      // truncated mid-stream
	corpus = append(corpus, raw[:3])               // truncated magic
	corpus = append(corpus, append([]byte{}, 'X')) // not a trace at all
	flip := append([]byte(nil), raw...)
	flip[len(flip)/2] ^= 0xff // corrupted record body
	corpus = append(corpus, flip)
	ver := append([]byte(nil), raw...)
	ver[4] = 99 // unsupported version
	corpus = append(corpus, ver)
	return corpus
}

// FuzzReadBinary asserts the decoder's contract on arbitrary input: it never
// panics, and anything it accepts is a valid trace that re-encodes and
// re-decodes to the same value. The seed corpus runs under plain `go test`,
// so the boundary cases above are exercised on every CI run.
func FuzzReadBinary(f *testing.F) {
	for _, seed := range fuzzSeedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("decoder accepted invalid trace: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		again, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatal("decode/encode/decode not a fixpoint")
		}
	})
}

// FuzzReaderStream asserts the incremental Reader matches ReadBinary
// decision-for-decision: same acceptance, same events — and that its
// whole-record fast path matches the byte-wise decoder down to the error
// strings (decode_diff_test.go).
func FuzzReaderStream(f *testing.F) {
	for _, seed := range fuzzSeedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		compareDecoders(t, data, nil)
		whole, wholeErr := ReadBinary(bytes.NewReader(data))

		sr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if wholeErr == nil {
				t.Fatalf("Reader rejected header ReadBinary accepted: %v", err)
			}
			return
		}
		var events []Event
		var e Event
		for {
			ok, nerr := sr.Next(&e)
			if nerr != nil {
				if wholeErr == nil {
					t.Fatalf("Reader rejected record ReadBinary accepted: %v", nerr)
				}
				return
			}
			if !ok {
				break
			}
			c := e
			if len(e.Deps) > 0 {
				c.Deps = append([]Dep(nil), e.Deps...)
			}
			events = append(events, c)
		}
		if len(events) < sr.Meta().NumEvents {
			// Clean EOF before the declared count: ReadBinary reports this
			// as a truncation error.
			if wholeErr == nil {
				t.Fatal("Reader stopped early on a stream ReadBinary accepted")
			}
			return
		}
		if wholeErr != nil {
			t.Fatalf("Reader accepted a stream ReadBinary rejected: %v", wholeErr)
		}
		if len(events) != len(whole.Events) {
			t.Fatalf("Reader yielded %d events, ReadBinary %d", len(events), len(whole.Events))
		}
		for i := range events {
			if !reflect.DeepEqual(events[i], whole.Events[i]) {
				t.Fatalf("event %d differs between Reader and ReadBinary", i)
			}
		}
	})
}
