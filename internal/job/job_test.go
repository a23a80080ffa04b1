package job

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"onocsim"
)

// An op arrives as a string (a flag, a request body) and becomes an Op by
// conversion; Validate is what tells the four wire names from anything else —
// a batch (an experiment, a sweep) is not an op.
func TestParseOp(t *testing.T) {
	for _, s := range []string{"exec", "study", "correct", "estimate"} {
		err := Job{Op: Op(s)}.Validate()
		if err != nil && strings.Contains(err.Error(), "unknown op") {
			t.Fatalf("op %q not recognised: %v", s, err)
		}
	}
	for _, s := range []string{"teleport", "experiment", "sweep", ""} {
		if err := (Job{Op: Op(s)}).Validate(); err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Fatalf("op %q: err = %v, want unknown op", s, err)
		}
	}
}

// New is the one place a front end's words become a job: an empty network
// keeps the document's own, a given one overrides it (in the config too, so a
// dump or a fingerprint shows what ran), and a bad word is refused here.
func TestNew(t *testing.T) {
	cfg := onocsim.DefaultConfig()
	cfg.Network = onocsim.Electrical
	j, err := New("correct", "", cfg, "")
	if err != nil || j.Op != OpCorrect || j.Kind != onocsim.Electrical || j.Config.Network != onocsim.Electrical {
		t.Fatalf("no override: %+v, %v; want the document's electrical", j.Kind, err)
	}
	j, err = New("exec", "optical", cfg, "")
	if err != nil || j.Kind != onocsim.Optical || j.Config.Network != onocsim.Optical {
		t.Fatalf("override: kind %s, config network %s, %v; want optical in both", j.Kind, j.Config.Network, err)
	}
	if j, err = New("correct", "", cfg, "t.sctm"); err != nil || j.TracePath != "t.sctm" {
		t.Fatalf("trace path: %q, %v", j.TracePath, err)
	}
	bad := cfg
	bad.System.Cores = 7
	for name, err := range map[string]error{
		"unknown op":      second(New("teleport", "", cfg, "")),
		"unknown network": second(New("exec", "quantum", cfg, "")),
		"trace path":      second(New("exec", "", cfg, "t.sctm")),
		"system.cores":    second(New("exec", "", bad, "")),
	} {
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

func second(_ Job, err error) error { return err }

func TestAdmissionPricing(t *testing.T) {
	cases := []struct {
		job   Job
		class onocsim.SlotClass
		units int
	}{
		{Job{Op: OpStudy}, onocsim.SlotHeavy, 4},
		{Job{Op: OpEstimate}, onocsim.SlotLight, 1},
		{Job{Op: OpExec}, onocsim.SlotMedium, 2},
		{Job{Op: OpCorrect}, onocsim.SlotMedium, 2},
	}
	for _, tc := range cases {
		class, units := tc.job.Admission()
		if class != tc.class || units != tc.units || units != class.Units() {
			t.Errorf("%s: admission %v/%d, want %v/%d", tc.job.Op, class, units, tc.class, tc.units)
		}
	}
}

func TestValidate(t *testing.T) {
	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 16
	coupled := cfg
	coupled.SCTM.Seed = "coupled"
	for _, ok := range []Job{
		{Op: OpExec, Config: cfg, Kind: onocsim.Optical},
		{Op: OpCorrect, Config: coupled, Kind: onocsim.Optical, TracePath: "t.bin"},
		{Op: OpEstimate, Config: cfg, Kind: onocsim.Optical, TracePath: "t.bin"},
	} {
		if err := ok.Validate(); err != nil {
			t.Fatalf("valid %s job rejected: %v", ok.Op, err)
		}
	}
	cases := []struct {
		name string
		job  Job
		want string
	}{
		{"trace path on exec", Job{Op: OpExec, Config: cfg, Kind: onocsim.Optical, TracePath: "t.bin"}, "trace path"},
		{"trace path on study", Job{Op: OpStudy, Config: cfg, Kind: onocsim.Optical, TracePath: "t.bin"}, "trace path"},
		{"unknown op", Job{Op: "teleport"}, "unknown op"},
	}
	for _, tc := range cases {
		err := tc.job.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestFingerprint(t *testing.T) {
	cfg := onocsim.DefaultConfig()
	fp, err := (Job{Op: OpExec, Config: cfg, Kind: onocsim.Optical}).Fingerprint()
	if err != nil || fp == "" {
		t.Fatalf("Fingerprint() = %q, %v", fp, err)
	}
	want, _ := cfg.Fingerprint()
	if fp != want {
		t.Fatalf("Fingerprint() = %q, want the config's %q", fp, want)
	}
}

// smallJob is a fast valid simulation job on the optical fabric.
func smallJob(op Op) Job {
	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 16
	cfg.Workload.Scale = 4
	cfg.Workload.Iterations = 2
	return Job{Op: op, Config: cfg, Kind: onocsim.Optical}
}

// Every simulation op runs end to end through a shared session, returns a
// rendered table, and sets exactly the payload pointer its op promises.
func TestRunnerOps(t *testing.T) {
	r := &Runner{Session: onocsim.NewSession("")}
	for _, op := range []Op{OpExec, OpStudy, OpCorrect, OpEstimate} {
		res, err := r.Run(context.Background(), smallJob(op))
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if res.Status != "ok" || res.Table == nil {
			t.Fatalf("%s: status %q, table %v", op, res.Status, res.Table)
		}
		set := 0
		for _, p := range []bool{res.Truth != nil, res.Study != nil, res.Correction != nil, res.Estimate != nil} {
			if p {
				set++
			}
		}
		if set != 1 {
			t.Fatalf("%s: %d payload pointers set, want exactly 1", op, set)
		}
		if op == OpCorrect || op == OpEstimate {
			if res.TraceEvents == 0 || res.TraceBytes == 0 {
				t.Fatalf("%s: trace accounting empty: %d events, %d bytes", op, res.TraceEvents, res.TraceBytes)
			}
		}
	}
}

// The trace accounting a correct or estimate job reports comes from its own
// result, never from a walk over the trace — so it has to equal the trace's
// own sums on every fabric (the optical one in both architectures), whether
// the result was computed, served from memory, or reloaded by a fresh session
// from the disk layer.
func TestTraceAccountingMatchesTheTrace(t *testing.T) {
	fabrics := []struct {
		name string
		kind onocsim.NetworkKind
		arch string
	}{
		{"electrical", onocsim.Electrical, ""},
		{"optical-mwsr", onocsim.Optical, "mwsr"},
		{"optical-swmr", onocsim.Optical, "swmr"},
		{"hybrid", onocsim.Hybrid, ""},
		{"ideal", onocsim.IdealNet, ""},
	}
	dir := t.TempDir()
	first := &Runner{Session: onocsim.NewSession(dir)}
	for _, f := range fabrics {
		for _, op := range []Op{OpCorrect, OpEstimate} {
			j := smallJob(op)
			j.Kind = f.kind
			if f.arch != "" {
				j.Config.Optical.Architecture = f.arch
			}
			tr, _, err := onocsim.CaptureTraceContext(context.Background(), j.Config, onocsim.IdealNet)
			if err != nil {
				t.Fatal(err)
			}
			var wantBytes int64
			for i := range tr.Events {
				wantBytes += int64(tr.Events[i].Bytes)
			}
			runs := []struct {
				name   string
				runner *Runner
			}{
				{"cold", first},
				{"warm", first},
				{"disk", &Runner{Session: onocsim.NewSession(dir)}},
			}
			for _, run := range runs {
				before := run.runner.Session.CacheStats()
				res, err := run.runner.Run(context.Background(), j)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", f.name, op, run.name, err)
				}
				if res.TraceEvents != len(tr.Events) || res.TraceBytes != wantBytes {
					t.Errorf("%s/%s/%s: reported %d events, %d bytes; the trace holds %d, %d",
						f.name, op, run.name, res.TraceEvents, res.TraceBytes, len(tr.Events), wantBytes)
				}
				after := run.runner.Session.CacheStats()
				switch run.name {
				case "warm":
					if after.Misses != before.Misses {
						t.Errorf("%s/%s: warm run computed (misses %d -> %d)", f.name, op, before.Misses, after.Misses)
					}
				case "disk":
					if after.DiskHits == before.DiskHits {
						t.Errorf("%s/%s: fresh session never touched the disk layer", f.name, op)
					}
				}
			}
		}
	}
}

// A sessionless runner degrades to uncached execution — the same nil-safety
// the Session methods themselves offer.
func TestRunnerNilWiring(t *testing.T) {
	r := &Runner{}
	res, err := r.Run(context.Background(), smallJob(OpExec))
	if err != nil || res.Truth == nil {
		t.Fatalf("sessionless simulation: %+v, %v", res, err)
	}
}

// slowCorrect is a correction that cannot converge early — with the makespan
// tolerance off the loop needs 76 rounds to its exact fixpoint, beyond the budget of 50 —
// so a park lands mid-loop.
func slowCorrect() Job {
	j := smallJob(OpCorrect)
	j.Config.SCTM.MaxIterations = 50
	j.Config.SCTM.MakespanTolerance = 0
	return j
}

// checkOwnPark runs j under a context that ends mid-loop: the job reports the
// parked partial trajectory, not a finished run and not an error.
func checkOwnPark(t *testing.T, j Job) {
	t.Helper()
	res, err := (&Runner{Session: onocsim.NewSession("")}).Run(&pollCtx{Context: context.Background(), remaining: 10}, j)
	if err != nil {
		t.Fatalf("parked run surfaced an error: %v", err)
	}
	if res.Status != "parked" || res.Table == nil || res.Correction == nil {
		t.Fatalf("park not reported: status %q, table %v, correction %v", res.Status, res.Table != nil, res.Correction != nil)
	}
	if n := len(res.Correction.Iterations); res.Correction.Converged || n == 0 || n >= 10 {
		t.Fatalf("parked trajectory implausible: %d rounds, converged %v", n, res.Correction.Converged)
	}
}

// A job whose own context dies mid-correction reports the parked partial
// trajectory instead of erroring or retrying forever. One that dies before
// round 0 has no trajectory to report: it gets the error, which is the
// cancellation as well as the park (so the daemon answers it with a 503).
func TestRunnerReportsOwnPark(t *testing.T) {
	j := slowCorrect()
	checkOwnPark(t, j)
	// Sessionless, the capture's and the correction's slot admissions poll;
	// round 0's boundary check parks.
	if _, err := (&Runner{}).Run(&pollCtx{Context: context.Background(), remaining: 2}, j); !errors.Is(err, onocsim.ErrParked) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled before round 0: %v", err)
	}
}

// A correction streamed from a trace file parks and is reported exactly as
// one on a captured trace.
func TestRunnerReportsOwnParkStreamed(t *testing.T) {
	j := slowCorrect()
	tr, _, err := onocsim.CaptureTraceContext(context.Background(), j.Config, onocsim.IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	j.TracePath = filepath.Join(t.TempDir(), "trace.sctm")
	if err := onocsim.SaveTrace(j.TracePath, tr); err != nil {
		t.Fatal(err)
	}
	checkOwnPark(t, j)
}

// pollCtx reports Canceled after a fixed number of Err polls, landing the
// park mid-loop (the correction loop polls once per round boundary).
type pollCtx struct {
	context.Context
	remaining int
}

func (c *pollCtx) Err() error {
	if c.remaining > 0 {
		c.remaining--
		return nil
	}
	return context.Canceled
}
