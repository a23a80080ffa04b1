package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// envInt reads a positive integer knob from the environment.
func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestLoadBurst is the service load harness (`make loadtest` scales it up
// via ONOCSIMD_LOAD_CLIENTS): a burst of concurrent requests of mixed cost
// classes over a handful of distinct configs. Because the distinct-work set
// is tiny compared to the burst, the cache must absorb almost everything —
// the assertion is on flight count, not latency, so the test is meaningful
// on a noisy host. Afterwards the scheduler must be idle and drain must be
// clean.
func TestLoadBurst(t *testing.T) {
	clients := envInt("ONOCSIMD_LOAD_CLIENTS", 24)
	srv := New(Config{Quick: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Three ops (light, medium, medium) × two workload scales: six distinct
	// units of work under any number of clients.
	ops := []string{"estimate", "exec", "correct"}
	configFor := func(i int) string {
		scale := 4 + 4*(i%2)
		return fmt.Sprintf(`{"op":%q,"network":"optical","config":{
			"system":{"cores":16},
			"workload":{"kernel":"stencil","scale":%d,"iterations":2},
			"max_cycles":5000000}}`, ops[i%len(ops)], scale)
	}
	distinct := len(ops) * 2

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(configFor(i)))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var env resultEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				errs[i] = fmt.Errorf("decode: %w", err)
				return
			}
			if resp.StatusCode != http.StatusOK || env.Status != "ok" {
				errs[i] = fmt.Errorf("status %d, envelope %q", resp.StatusCode, env.Status)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	st := serverStats(t, ts)
	// Each distinct unit of work costs at most 3 flights (capture, truth /
	// correction, estimate); everything else must come from dedup or cache.
	maxFlights := uint64(3 * distinct)
	if st.Cache.Misses > maxFlights {
		t.Fatalf("%d computations for %d distinct units (max %d) — cache not absorbing the burst: %+v",
			st.Cache.Misses, distinct, maxFlights, st.Cache)
	}
	served := st.Cache.Hits + st.Cache.Waits + st.Replies.Hits
	if served == 0 {
		t.Fatalf("no request was served by cache, dedup or the reply memo: %+v %+v", st.Cache, st.Replies)
	}
	t.Logf("burst of %d: %d flights, %d cache/dedup/memo serves (hit ratio %.0f%%), %d queued peak-free",
		clients, st.Cache.Misses, served,
		100*float64(served)/float64(served+st.Cache.Misses), st.Scheduler.Queued)
	if st.Scheduler.InUse != 0 || st.Scheduler.Queued != 0 {
		t.Fatalf("scheduler not idle after burst: %+v", st.Scheduler)
	}

	// Clean shutdown: drain refuses new work, stats still serve.
	srv.Drain()
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(configFor(0)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted load: %d", resp.StatusCode)
	}
	if !serverStats(t, ts).Draining {
		t.Fatal("stats do not report draining")
	}
}
