package rapidware

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// linkedAllowlist names the functions under internal/ that no binary links
// but that stay on purpose, each with its kind and a test file that uses it.
const linkedAllowlist = "testdata/linked_allowlist.txt"

// allowKinds are the reasons an unlinked function may stay: a reference a
// differential test compares linked code against, an accessor through which
// tests read linked code's state, a fixture tests build on, or a String
// method.
var allowKinds = map[string]bool{"reference": true, "accessor": true, "fixture": true, "String": true}

// TestEveryFunctionIsLinked builds every binary the repository ships (the
// mains under cmd/ and examples/, and the benchmark under bench/) with
// inlining off and the linker's dependency dump on, and fails on any
// top-level function or method under internal/ that none of them links and
// that the allowlist does not name. It also fails on an allowlist entry that
// is linked, no longer exists, or whose test file no longer mentions it, so
// the list only shrinks. Only the host build's files are scanned: an
// arm64-only file is checked by building for arm64.
func TestEveryFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary; skipped under -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go not on PATH")
	}
	declared := declaredFuncs(t)
	linked := linkedSymbols(t)
	allow := readAllowlist(t)

	var failures []string
	for sym := range declared {
		if !linked[sym] && allow[sym] == "" {
			failures = append(failures, fmt.Sprintf("%s (%s): no binary links it; delete it, or allowlist it with its kind and test file in %s",
				sym, declared[sym], linkedAllowlist))
		}
	}
	for sym, file := range allow {
		switch {
		case declared[sym] == "":
			failures = append(failures, fmt.Sprintf("%s: allowlisted but no longer declared; remove its entry", sym))
		case linked[sym]:
			failures = append(failures, fmt.Sprintf("%s: allowlisted but linked; remove its entry", sym))
		case !mentions(t, file, sym):
			failures = append(failures, fmt.Sprintf("%s: allowlisted for %s, which no longer mentions it; remove its entry", sym, file))
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
}

// declaredFuncs maps every non-test top-level function and method in the
// host build of internal/... to its declaring file, keyed by the linker's
// symbol name with the module path cut: internal/fec.NewBlockEncoder,
// internal/fec.(*BlockDecoder).Add, internal/packet.Kind.String.
func declaredFuncs(t *testing.T) map[string]string {
	t.Helper()
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}}{{"\t"}}{{.Dir}}{{"\t"}}{{join .GoFiles " "}}`, "./internal/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	decls := make(map[string]string)
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		parts := strings.Split(line, "\t")
		if len(parts) != 3 {
			t.Fatalf("go list: unexpected line %q", line)
		}
		pkg := strings.TrimPrefix(parts[0], "rapidware/")
		for _, name := range strings.Fields(parts[2]) {
			path := filepath.Join(parts[1], name)
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			rel, _ := filepath.Rel(root, path)
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
					continue
				}
				decls[pkg+"."+funcSymbol(fn)] = rel
			}
		}
	}
	return decls
}

// funcSymbol is fn's linker name within its package: F, T.M or (*T).M, with
// any type parameters dropped.
func funcSymbol(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		return "(*" + recv + ")." + fn.Name.Name
	}
	return recv + "." + fn.Name.Name
}

// linkedSymbols builds each shipped binary into a temporary directory and
// returns every internal/ symbol its linker dependency dump names, with
// generic instantiations folded onto their declaration.
func linkedSymbols(t *testing.T) map[string]bool {
	t.Helper()
	out, err := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type build struct{ dir, pkg string }
	var builds []build
	for _, pkg := range strings.Fields(string(out)) {
		builds = append(builds, build{".", pkg})
	}
	builds = append(builds, build{"bench", "."})
	linked := make(map[string]bool)
	tmp := t.TempDir()
	for i, b := range builds {
		cmd := exec.Command("go", "build", "-o", filepath.Join(tmp, fmt.Sprint(i)),
			"-gcflags=all=-l", "-ldflags=-dumpdep", b.pkg)
		cmd.Dir = b.dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("go build %s: %v\n%s", b.pkg, err, stderr.String())
		}
		for _, line := range strings.Split(stderr.String(), "\n") {
			for _, sym := range strings.Split(line, " -> ") {
				if sym, ok := strings.CutPrefix(sym, "rapidware/"); ok {
					linked[genericArgs.ReplaceAllString(sym, "")] = true
				}
			}
		}
	}
	return linked
}

// genericArgs matches the shape arguments of a generic instantiation's
// symbol, one nesting level deep: F[go.shape.int], (*T[go.shape.[]uint8]).M.
var genericArgs = regexp.MustCompile(`\[(?:[^\[\]]|\[[^\[\]]*\])*\]`)

// readAllowlist returns the allowlist's entries, symbol to test file. A
// line is "<kind> <symbol> <test file>"; '#' starts a comment.
func readAllowlist(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(linkedAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	allow := make(map[string]string)
	for i, line := range strings.Split(string(data), "\n") {
		line, _, _ = strings.Cut(line, "#")
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) != 3 || !allowKinds[f[0]] || !strings.HasSuffix(f[2], "_test.go") {
			t.Fatalf("%s:%d: want \"<reference|accessor|fixture|String> <symbol> <file>_test.go\", got %q", linkedAllowlist, i+1, line)
		}
		if _, dup := allow[f[1]]; dup {
			t.Fatalf("%s:%d: %s listed twice", linkedAllowlist, i+1, f[1])
		}
		allow[f[1]] = f[2]
	}
	return allow
}

// mentions reports whether the test file names sym's function or method.
func mentions(t *testing.T, file, sym string) bool {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Errorf("%s: %v", linkedAllowlist, err)
		return true
	}
	name := sym[strings.LastIndex(sym, ".")+1:]
	return regexp.MustCompile(`\b` + name + `\b`).Match(data)
}
