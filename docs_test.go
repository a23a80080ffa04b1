package onocsim_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// checkedDocs are the documents that describe the system as it is, so every
// name in them must resolve against the tree. CHANGES.md, ROADMAP.md, ISSUE.md
// and the paper notes are history or plans, and bench/ is not a PR's to edit.
var checkedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// toolFlags are the flags that are not a command's, yet may be named on their
// own: go test's -short and -race, bench/'s --trace.
var toolFlags = map[string]bool{"short": true, "race": true, "trace": true}

var (
	docSnippet  = regexp.MustCompile("`([^`]+)`")
	docPath     = regexp.MustCompile(`\b(?:cmd|internal|examples)/[\w./*-]*[\w*]`)
	docIdent    = regexp.MustCompile(`(^|[^\w/.])(\w+)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`)
	docMake     = regexp.MustCompile(`\bmake ([a-z][\w-]*)`)
	docFlag     = regexp.MustCompile(`^--?([a-z][\w-]*)`)
	docShellSep = regexp.MustCompile(`[|;&]`)
	makeTarget  = regexp.MustCompile(`(?m)^([a-z][\w-]*):`)
	fileSuffix  = regexp.MustCompile(`^(go|json|jsonl|md|txt|csv|bin|sctm|prof|test|golden)$`)
)

// declared maps "Name" and "Type.member" (methods, struct fields, interface
// methods) to what the package in dir declares, test files included.
func declared(t *testing.T, dir string) map[string]bool {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	members := func(typ string, fields *ast.FieldList) {
		for _, f := range fields.List {
			for _, n := range f.Names {
				names[typ+"."+n.Name] = true
			}
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv != nil {
						recv := d.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						if idx, ok := recv.(*ast.IndexExpr); ok {
							recv = idx.X
						}
						name = recv.(*ast.Ident).Name + "." + name
					}
					names[name] = true
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.ValueSpec:
							for _, n := range s.Names {
								names[n.Name] = true
							}
						case *ast.TypeSpec:
							names[s.Name.Name] = true
							switch typ := s.Type.(type) {
							case *ast.StructType:
								members(s.Name.Name, typ.Fields)
							case *ast.InterfaceType:
								members(s.Name.Name, typ.Methods)
							}
						}
					}
				}
			}
		}
	}
	return names
}

// TestDocsResolve holds the current-state documents to the tree: every
// cmd/, internal/ or examples/ path exists, every pkg.Ident of a repo package
// is declared (pkg.Type.member one level deep), every flag named after a
// command — or alone — is in flagSurface, every `make target` is in the
// Makefile. It reads inline code spans and fenced blocks; prose is free.
func TestDocsResolve(t *testing.T) {
	packages := map[string]map[string]bool{"onocsim": declared(t, ".")}
	dirs, _ := filepath.Glob("internal/*")
	for _, dir := range dirs {
		packages[filepath.Base(dir)] = declared(t, dir)
	}
	flags := map[string]bool{}
	anyFlag := map[string]bool{}
	commands := map[string]bool{}
	for _, f := range flagSurface {
		cmd, name, _ := strings.Cut(f, " -")
		flags[f], anyFlag[name], commands[cmd] = true, true, true
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	// The benchmark's per-layer metric names (enoc.tick_ns, core.rounds) look
	// like identifiers of the package they measure.
	var benchmark struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if data, err := os.ReadFile("BENCHMARK.json"); err != nil || json.Unmarshal(data, &benchmark) != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	metric := map[string]bool{}
	for _, m := range benchmark.PerLayer {
		metric[m.Name] = true
	}

	check := func(doc string, line int, s string) {
		bad := func(format string, args ...interface{}) {
			t.Helper()
			t.Errorf("%s:%d: "+format, append([]interface{}{doc, line}, args...)...)
		}
		for _, p := range docPath.FindAllString(s, -1) {
			if m, _ := filepath.Glob(strings.TrimSuffix(p, "/...")); len(m) == 0 {
				bad("path %s does not exist", p)
			}
		}
		for _, m := range docIdent.FindAllStringSubmatch(s, -1) {
			names, ok := packages[m[2]]
			parts := strings.Split(m[3], ".")
			if !ok || metric[m[2]+"."+m[3]] || fileSuffix.MatchString(parts[len(parts)-1]) {
				continue
			}
			if !names[parts[0]] || (len(parts) > 1 && !names[parts[0]+"."+parts[1]]) {
				bad("%s.%s is not declared", m[2], m[3])
			}
		}
		for _, m := range docMake.FindAllStringSubmatch(s, -1) {
			if !targets[m[1]] {
				bad("make %s is not a Makefile target", m[1])
			}
		}
		// Flags: per shell segment, the flags that follow a command's name are
		// that command's; a span that starts with a flag names one on its own.
		for _, seg := range docShellSep.Split(s, -1) {
			words := strings.Fields(seg)
			cmd := ""
			for i, w := range words {
				name := filepath.Base(w)
				if cmd == "" && i == 0 && docFlag.MatchString(w) {
					cmd = "-"
				} else if cmd == "" && commands[name] && !strings.Contains(seg, "go test") && !strings.Contains(seg, "go build") {
					cmd = name
					continue
				}
				m := docFlag.FindStringSubmatch(w)
				if cmd == "" || m == nil {
					continue
				}
				if cmd == "-" && !anyFlag[m[1]] && !toolFlags[m[1]] {
					bad("-%s is no command's flag", m[1])
				} else if cmd != "-" && !flags[cmd+" -"+m[1]] {
					bad("%s has no flag -%s", cmd, m[1])
				}
			}
		}
	}

	for _, doc := range checkedDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Fenced lines are checked whole; the rest is kept, with the fenced
		// lines blanked, so that a code span may wrap over a line end.
		lines := strings.Split(string(data), "\n")
		fenced, command := false, ""
		for i, text := range lines {
			fence := strings.HasPrefix(strings.TrimSpace(text), "```")
			if fence {
				fenced = !fenced
			} else if fenced {
				// A shell line ending in a backslash continues on the next.
				command += strings.TrimSuffix(text, "\\")
				if !strings.HasSuffix(text, "\\") {
					check(doc, i+1, command)
					command = ""
				}
			}
			if fence || fenced {
				lines[i] = ""
			}
		}
		prose := strings.Join(lines, "\n")
		for _, m := range docSnippet.FindAllStringSubmatchIndex(prose, -1) {
			span := strings.Join(strings.Fields(prose[m[2]:m[3]]), " ")
			check(doc, 1+strings.Count(prose[:m[2]], "\n"), span)
		}
	}
}
