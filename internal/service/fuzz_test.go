package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// The two body decoders face whatever a client sends. These targets decode
// arbitrary bodies and never run the work: a decoder must not panic, and it
// returns either work the admission path can hold (a computation, a known
// class, and that class's units or none) or an error httpStatus maps to a
// 4xx. Explore with `go test ./internal/service -run '^$' -fuzz
// FuzzSimulateRequest -fuzztime 60s` (or FuzzSweepSpec).
func fuzzDecoder(f *testing.F, path string, decode func(*Server, http.ResponseWriter, *http.Request) (work, error)) {
	doc, err := os.ReadFile("testdata/dump-config-v1.json") // names removed model constants
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range []string{
		string(doc),
		`{"op":"exec","config":` + string(doc) + `}`,
		`{"op":"correct","network":"optical","trace":"tenant.sctm","config":{"system":{"cores":16}}}`,
		`{"op":"exec"}garbage`,
		`{"wavelengths":[` + strings.Repeat("4,", 4096) + `4]}`, // past config.MaxSweepArms
		smallSim("estimate"),
		`{"networks":["electrical"],"cores":[16],"wavelengths":[4],"faults":["off"],"kernels":["stencil"]}`,
		"",
	} {
		f.Add([]byte(body))
	}
	srv := New(Config{Quick: true})
	f.Fuzz(func(t *testing.T, body []byte) {
		wk, err := decode(srv, httptest.NewRecorder(), httptest.NewRequest("POST", path, bytes.NewReader(body)))
		switch {
		case err != nil:
			if code := httpStatus(err); code < 400 || code > 499 {
				t.Fatalf("%s: decode error is a %d, not a 4xx: %v", path, code, err)
			}
		case wk.run == nil || wk.class.String() == "unknown" || (wk.units != 0 && wk.units != wk.class.Units()):
			t.Fatalf("%s: decoded work is not admissible: run %v, class %d, %d units", path, wk.run != nil, wk.class, wk.units)
		}
	})
}

func FuzzSimulateRequest(f *testing.F) { fuzzDecoder(f, "/v1/simulate", (*Server).decodeSimulate) }

func FuzzSweepSpec(f *testing.F) { fuzzDecoder(f, "/v1/sweeps", (*Server).decodeSweep) }
