package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// End-to-end drain: boot the daemon, start a long self-correction over HTTP,
// deliver the shutdown signal mid-loop (the test cancels the same context
// signal.NotifyContext would), and verify the client still receives a valid
// parked partial result and run() exits cleanly.
//
// The signal goes out on the correction's first round event: a round is done,
// so the park that follows has a trajectory to report. (A request cancelled
// before its first round is by design an error reply, not a "parked"
// envelope; internal/job's TestRunnerParkBeforeRoundZeroResumes pins that.)
func TestDaemonSIGTERMDrainsAndParks(t *testing.T) {
	result := drainMidCorrection(t)
	var env struct {
		Version int             `json:"version"`
		Status  string          `json:"status"`
		Table   json.RawMessage `json:"table"`
	}
	if err := json.Unmarshal(result, &env); err != nil {
		t.Fatalf("bad result payload %s: %v", result, err)
	}
	if env.Status != "parked" || !strings.Contains(string(env.Table), "parked before convergence") {
		t.Fatalf("expected parked partial result, got %s", result)
	}
}

// drainMidCorrection boots a daemon, signals it while a long correction is in
// flight, checks that it shuts down cleanly, and returns the payload of the
// request's final result or error event.
func drainMidCorrection(t *testing.T) []byte {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, options{addr: "127.0.0.1:0", drain: 30 * time.Second, quick: true},
			func(addr net.Addr) { ready <- addr })
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr.String()
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	// Long-running correction: with the makespan tolerance off the loop walks
	// 76 rounds to its exact fixpoint, 76 boundaries to park at.
	body := `{"op":"correct","network":"optical","config":{
		"system":{"cores":16},
		"workload":{"kernel":"stencil","scale":4,"iterations":2},
		"sctm":{"max_iterations":500,"makespan_tolerance":0},
		"max_cycles":5000000}}`
	resp, err := http.Post(base+"/v1/simulate?stream=sse", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read the SSE stream; on the first round progress event, deliver the
	// "signal".
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var event string
	var result []byte
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			switch event {
			case "progress":
				if !signalled && strings.Contains(line, `"kind":"round"`) {
					signalled = true
					cancel() // SIGTERM
				}
			case "result", "error":
				result = []byte(strings.TrimPrefix(line, "data: "))
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !signalled {
		t.Fatal("never saw a round progress event to signal on")
	}
	if result == nil {
		t.Fatal("stream ended without a result event")
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon did not shut down cleanly: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after drain")
	}

	// The listener is really gone.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("daemon still serving after shutdown")
	}
	return result
}

// A daemon with nothing in flight shuts down promptly on signal.
func TestDaemonIdleShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, options{addr: "127.0.0.1:0", drain: 10 * time.Second},
			func(addr net.Addr) { ready <- addr })
	}()
	var base string
	select {
	case addr := <-ready:
		base = fmt.Sprintf("http://%s", addr)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("idle shutdown failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle daemon did not exit")
	}
}

// A client that opens a connection and never finishes its request line is
// cut off after readHeaderTimeout, and costs the other clients nothing while
// it dawdles.
func TestDaemonClosesStalledRequestHead(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, options{addr: "127.0.0.1:0", drain: 10 * time.Second},
			func(addr net.Addr) { ready <- addr })
	}()
	var addr net.Addr
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("POST /v1/simu")); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatalf("healthz beside a stalled connection: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz beside a stalled connection: %d", resp.StatusCode)
	}
	// The server hangs up: the read drains whatever error reply it sent and
	// ends in EOF (a reset, on some stacks), not in our own deadline.
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled connection still open %v after its first byte", time.Since(start))
	}
	if held := time.Since(start); held < readHeaderTimeout-time.Second {
		t.Fatalf("connection closed after %v, before the %v header timeout", held, readHeaderTimeout)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
