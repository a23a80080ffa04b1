// Command onocsimd serves simulations over HTTP: a long-lived daemon around
// one shared onocsim session, so every client benefits from single-flight
// deduplication, the in-memory result cache, and (with -cachedir) the
// content-addressed disk layer across restarts.
//
// Examples:
//
//	onocsimd -addr :8080 -cachedir /var/cache/onocsim
//	curl -s localhost:8080/v1/simulate -d '{"op":"exec","network":"optical"}'
//	curl -sN 'localhost:8080/v1/simulate?stream=sse' -d '{"op":"study"}'
//
// SIGTERM or SIGINT drains gracefully: new requests are refused, in-flight
// self-correction loops park at their next round boundary and return their
// partial trajectories, and the listener closes once responses are written
// (or the -drain timeout expires).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"onocsim/internal/cliutil"
	"onocsim/internal/service"
)

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address")
	flag.StringVar(&o.cacheDir, "cachedir", "", "content-addressed result cache directory (empty: in-memory only)")
	flag.IntVar(&o.budget, "budget", 0, "admission budget in cost units — light 1, medium 2, heavy 4 (0: 2×GOMAXPROCS)")
	flag.DurationVar(&o.drain, "drain", 30*time.Second, "graceful shutdown timeout")
	flag.BoolVar(&o.quick, "quick", false, "shrink experiment sweeps (testing/load harnesses)")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	err := run(ctx, o, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "onocsimd:", err)
	}
	os.Exit(cliutil.ExitCode(err))
}

// The daemon's connection timeouts. A client gets readHeaderTimeout to send
// its request head — one that opens a connection and trickles (or never
// finishes) a request line does not hold a goroutine and a descriptor
// forever — and a keep-alive connection may sit idle for idleTimeout between
// requests. There is deliberately no WriteTimeout: an SSE stream and a long
// simulation are both legitimate slow responses, and their lifetime is
// governed by the request context and the drain instead.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

type options struct {
	addr     string
	cacheDir string
	budget   int
	drain    time.Duration
	quick    bool
}

// run serves until ctx ends, then drains. onReady, if non-nil, receives the
// bound address once the listener is up — the e2e test's hook for talking to
// a daemon on an ephemeral port.
func run(ctx context.Context, o options, onReady func(addr net.Addr)) error {
	if o.addr == "" {
		return cliutil.Usagef("empty -addr")
	}
	srv := service.New(service.Config{CacheDir: o.cacheDir, Budget: o.budget, Quick: o.quick})
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "onocsimd: listening on %s\n", ln.Addr())
	if onReady != nil {
		onReady(ln.Addr())
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "onocsimd: draining")
	// Refuse new work and park in-flight correction loops, then let the
	// HTTP server wait for handlers to write their final responses.
	srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
