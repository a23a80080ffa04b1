// Package mutation holds the mutation catalog: small deliberate bugs, each
// paired with the test that must catch it. A claim that a test is
// "mutation-checked" is an entry here, re-runnable by anyone with
// `make mutate`.
package mutation

import (
	"bytes"
	"cmp"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A mutant replaces the one occurrence of Old in File (relative to the module
// root) with New; Test, a top-level test of package Pkg, must then fail.
type mutant struct {
	Name string `json:"name"`
	File string `json:"file"`
	Old  string `json:"old"`
	New  string `json:"new"`
	Pkg  string `json:"pkg"`
	Test string `json:"test"`
}

// TestMutationCatalog runs every entry of testdata/catalog.json as a
// `go test -overlay` build, so the tree is never edited, and fails for each
// mutant its test does not kill. Every entry recompiles a package, so the
// catalog runs only when ONOCSIM_MUTATE is set (`make mutate`).
func TestMutationCatalog(t *testing.T) {
	if os.Getenv("ONOCSIM_MUTATE") == "" {
		t.Skip("set ONOCSIM_MUTATE=1, or run make mutate")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var catalog []mutant
	if err := dec.Decode(&catalog); err != nil {
		t.Fatal(err)
	}

	// A failure under a mutant proves something only if the test passes on
	// the tree as it is.
	tests := map[string][]string{}
	for _, m := range catalog {
		if m.Name == "" || m.File == "" || m.Old == "" || m.Old == m.New || m.Pkg == "" || m.Test == "" {
			t.Fatalf("incomplete catalog entry %+v", m)
		}
		tests[m.Pkg] = append(tests[m.Pkg], m.Test)
	}
	for pkg, names := range tests {
		if out, err := goTest(root, "", pkg, names...); err != nil {
			t.Fatalf("unmutated %s fails %v:\n%s", pkg, names, out)
		}
	}

	killed := 0
	for _, m := range catalog {
		t.Run(m.Name, func(t *testing.T) {
			path := filepath.Join(root, m.File)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.Old); n != 1 {
				t.Fatalf("the old snippet occurs %d times in %s, want once", n, m.File)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(path))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.Old, m.New, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			overlayPath := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := goTest(root, overlayPath, m.Pkg, m.Test)
			switch {
			case strings.Contains(out, "[build failed]") || strings.Contains(out, "[setup failed]"):
				t.Errorf("the mutant does not build:\n%s", out)
			case err == nil:
				t.Errorf("survived: %s passes with %s mutated", m.Test, m.File)
			case !strings.Contains(out, m.Test):
				t.Errorf("%s failed without naming %s:\n%s", m.Pkg, m.Test, out)
			default:
				killed++
			}
		})
	}
	t.Logf("mutation kill rate: %d of %d killed", killed, len(catalog))
}

// goTest runs the named top-level tests of pkg from the module root, through
// the overlay file when one is given, and returns the combined output. It
// runs the go command ONOCSIM_GO names (make mutate sets it to $(GO)), or
// else the one on PATH.
func goTest(root, overlay, pkg string, names ...string) (string, error) {
	args := []string{"test", "-count=1", "-timeout=5m", "-run", "^(" + strings.Join(names, "|") + ")$"}
	if overlay != "" {
		args = append(args, "-overlay", overlay)
	}
	cmd := exec.Command(cmp.Or(os.Getenv("ONOCSIM_GO"), "go"), append(args, pkg)...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	return string(out), err
}
