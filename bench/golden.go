package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
)

//go:embed golden.json
var goldenJSON []byte

// goldens pins, per workload and seed, the SHA-256 of each op's simulated
// statistics (never of work counters or host time). Seeds without an entry
// are held to the invariants only: every event delivered exactly once, every
// pass equal to the first, and the error band against the reference.
type goldens struct {
	Digests map[string]map[string]map[string]string `json:"digests"` // workload -> seed -> op -> sha256
}

func loadGoldens() (*goldens, error) {
	g := &goldens{}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("bench/golden.json: %w", err)
	}
	if g.Digests == nil {
		g.Digests = map[string]map[string]map[string]string{}
	}
	return g, nil
}

func (g *goldens) check(workload string, seed uint64, got map[string]string) error {
	want := g.Digests[workload][strconv.FormatUint(seed, 10)]
	ops := make([]string, 0, len(want))
	for op := range want {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		if got[op] != want[op] {
			return fmt.Errorf("golden mismatch: %s seed %d op %q simulated %.12s, golden %.12s", workload, seed, op, got[op], want[op])
		}
	}
	return nil
}

func (g *goldens) put(workload string, seed uint64, got map[string]string) {
	if g.Digests[workload] == nil {
		g.Digests[workload] = map[string]map[string]string{}
	}
	g.Digests[workload][strconv.FormatUint(seed, 10)] = got
}

func (g *goldens) save(path string) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
