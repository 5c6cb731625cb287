package rapidware

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
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

// fieldsAllowlist names the unexported struct fields under internal/ that no
// non-test code reads but that stay on purpose, each with its kind and a test
// file that uses it.
const fieldsAllowlist = "testdata/fields_allowlist.txt"

// fieldKinds are the reasons an unread field may stay: a value through which
// tests read linked code's state, or a reference held only to keep what it
// points to alive.
var fieldKinds = map[string]bool{"accessor": true, "keepalive": true}

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
	allow := readAllowlist(t, linkedAllowlist, allowKinds)

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

// TestNoWriteOnlyFields type-checks the host build of every package under
// internal/ and fails on any unexported struct field that the package's
// non-test code never reads and that the allowlist does not name. A write is
// an assignment's left side, an increment or decrement, a composite literal's
// key, or an atomic Add, Store, Swap or CompareAndSwap whose result is
// discarded; every other use is a read. Like TestEveryFunctionIsLinked it
// also fails on an allowlist entry that is read, no longer exists, or whose
// test file no longer mentions it, so the list only shrinks. Exported fields
// are not scanned: another package, or encoding/json by reflection, may read
// them.
func TestNoWriteOnlyFields(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks every internal package from source; skipped under -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go not on PATH")
	}
	declared, read := fieldUses(t)
	allow := readAllowlist(t, fieldsAllowlist, fieldKinds)

	var failures []string
	for field, file := range declared {
		if !read[field] && allow[field] == "" {
			failures = append(failures, fmt.Sprintf("%s (%s): no non-test code reads it; delete it and its writes, or allowlist it with its kind and test file in %s",
				field, file, fieldsAllowlist))
		}
	}
	for field, file := range allow {
		switch {
		case declared[field] == "":
			failures = append(failures, fmt.Sprintf("%s: allowlisted but no longer declared; remove its entry", field))
		case read[field]:
			failures = append(failures, fmt.Sprintf("%s: allowlisted but read; remove its entry", field))
		case !mentions(t, file, field):
			failures = append(failures, fmt.Sprintf("%s: allowlisted for %s, which no longer mentions it; remove its entry", field, file))
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
}

// fieldUses type-checks the host build of each package under internal/ and
// returns its unexported, named struct fields, keyed internal/session.Session.name,
// each mapped to its declaring file, and the set of those that the package's
// non-test code reads. Embedded fields are left out: a promoted selection
// reads them without naming them.
func fieldUses(t *testing.T) (declared map[string]string, read map[string]bool) {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	declared, read = make(map[string]string), make(map[string]bool)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	for _, p := range internalPackages(t) {
		var files []*ast.File
		for _, name := range p.files {
			f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		if _, err := (&types.Config{Importer: imp}).Check(p.path, fset, files, info); err != nil {
			t.Fatalf("type-check %s: %v", p.path, err)
		}
		keys := make(map[*types.Var]string)
		writes := make(map[ast.Node]bool)
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						for _, fl := range st.Fields.List {
							for _, id := range fl.Names {
								if v := info.Defs[id].(*types.Var); !v.Exported() && v.Name() != "_" {
									keys[v] = strings.TrimPrefix(p.path, "rapidware/") + "." + n.Name.Name + "." + id.Name
									rel, _ := filepath.Rel(root, fset.Position(id.Pos()).Filename)
									declared[keys[v]] = rel
								}
							}
						}
					}
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						writes[writtenExpr(l)] = true
					}
				case *ast.IncDecStmt:
					writes[writtenExpr(n.X)] = true
				case *ast.ExprStmt:
					if call, ok := n.X.(*ast.CallExpr); ok {
						if sel, ok := call.Fun.(*ast.SelectorExpr); ok && atomicWrite(info, sel) {
							writes[writtenExpr(sel.X)] = true
						}
					}
				}
				return true
			})
		}
		// A field is read through a selector; the bare identifier that names
		// one is a composite literal's key, a write.
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && !writes[sel] {
					if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() && keys[v.Origin()] != "" {
						read[keys[v.Origin()]] = true
					}
				}
				return true
			})
		}
	}
	return declared, read
}

// writtenExpr returns the node an assignment to e writes: e itself, or for an
// index expression, parenthesized or not, the collection it indexes.
func writtenExpr(e ast.Expr) ast.Node {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return e
		}
	}
}

// atomicWrite reports whether sel names a sync/atomic type's Add, Store, Swap
// or CompareAndSwap method.
func atomicWrite(info *types.Info, sel *ast.SelectorExpr) bool {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	switch fn.Name() {
	case "Add", "Store", "Swap", "CompareAndSwap":
		return true
	}
	return false
}

// internalPkg is one package of the host build under internal/: its import
// path, directory and non-test Go files.
type internalPkg struct {
	path, dir string
	files     []string
}

// internalPackages lists the host build's packages under internal/.
func internalPackages(t *testing.T) []internalPkg {
	t.Helper()
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}}{{"\t"}}{{.Dir}}{{"\t"}}{{join .GoFiles " "}}`, "./internal/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []internalPkg
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		parts := strings.Split(line, "\t")
		if len(parts) != 3 {
			t.Fatalf("go list: unexpected line %q", line)
		}
		pkgs = append(pkgs, internalPkg{parts[0], parts[1], strings.Fields(parts[2])})
	}
	return pkgs
}

// declaredFuncs maps every non-test top-level function and method in the
// host build of internal/... to its declaring file, keyed by the linker's
// symbol name with the module path cut: internal/fec.NewBlockEncoder,
// internal/fec.(*BlockDecoder).Add, internal/packet.Kind.String.
func declaredFuncs(t *testing.T) map[string]string {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	decls := make(map[string]string)
	fset := token.NewFileSet()
	for _, p := range internalPackages(t) {
		pkg := strings.TrimPrefix(p.path, "rapidware/")
		for _, name := range p.files {
			path := filepath.Join(p.dir, name)
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

// readAllowlist returns the entries of the allowlist at path, symbol to test
// file. A line is "<kind> <symbol> <test file>", with kind one of kinds; '#'
// starts a comment.
func readAllowlist(t *testing.T, path string, kinds map[string]bool) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
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
		if len(f) != 3 || !kinds[f[0]] || !strings.HasSuffix(f[2], "_test.go") {
			t.Fatalf("%s:%d: want \"<kind> <symbol> <file>_test.go\" with kind one of %v, got %q", path, i+1, slices.Sorted(maps.Keys(kinds)), line)
		}
		if _, dup := allow[f[1]]; dup {
			t.Fatalf("%s:%d: %s listed twice", path, i+1, f[1])
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
