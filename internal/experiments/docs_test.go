package experiments

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// module is the parsed source of a Go module.
type module struct {
	fset *token.FileSet
	path string             // the module path go.mod declares
	pkgs map[string]*modPkg // by slash-separated directory relative to the root, "." for the root
}

// modPkg is one package directory of a module.
type modPkg struct {
	dir   string
	name  string          // the package clause of its non-test files
	decls map[string]bool // what its files, tests included, declare (see declared)
	top   []topDecl       // the top-level declarations of its non-test files
	files []*ast.File     // its non-test files
}

// topDecl is a top-level func, type, var or const ("Name"), or a method
// ("Type.Method").
type topDecl struct {
	key string
	id  *ast.Ident
}

// importable reports whether another package can import p.
func (p *modPkg) importable() bool { return p.name != "" && p.name != "main" }

// modulePackages parses every package directory of the module at root,
// keyed by directory, so that two directories sharing a base name
// (examples/kvstore and internal/kvstore) stay apart.
func modulePackages(t testing.TB, root string) *module {
	t.Helper()
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	m := &module{fset: token.NewFileSet(), pkgs: map[string]*modPkg{}}
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			m.path = f[1]
		}
	}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "ab.out") {
			return filepath.SkipDir
		}
		parsed, err := parser.ParseDir(m.fset, dir, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if len(parsed) == 0 {
			return nil
		}
		rel, _ := filepath.Rel(root, dir)
		p := &modPkg{dir: filepath.ToSlash(rel), decls: map[string]bool{}}
		m.pkgs[p.dir] = p
		for _, pkg := range parsed {
			for name, file := range pkg.Files {
				test := strings.HasSuffix(name, "_test.go")
				if !test {
					p.name = file.Name.Name
					p.files = append(p.files, file)
				}
				for _, decl := range file.Decls {
					declared(decl, p, test)
				}
			}
		}
		// Map order must not leak into what the checks report.
		sort.Slice(p.files, func(i, j int) bool { return p.files[i].Pos() < p.files[j].Pos() })
		sort.Slice(p.top, func(i, j int) bool { return p.top[i].id.Pos() < p.top[j].id.Pos() })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// declared records what one top-level declaration declares: "Ident" for
// every top-level declaration and "Type.Member" for every method, struct
// field and interface method go into p.decls, and, from a non-test file,
// the top-level funcs, methods, types, vars and consts into p.top.
func declared(decl ast.Decl, p *modPkg, test bool) {
	add := func(key string, id *ast.Ident, top bool) {
		p.decls[key] = true
		if top && !test {
			p.top = append(p.top, topDecl{key, id})
		}
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			add(d.Name.Name, d.Name, d.Name.Name != "init" && d.Name.Name != "main")
			return
		}
		if recv := receiver(d); recv != "" {
			add(recv+"."+d.Name.Name, d.Name, true)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec:
				for _, id := range s.Names {
					add(id.Name, id, id.Name != "_")
				}
			case *ast.TypeSpec:
				add(s.Name.Name, s.Name, true)
				var members *ast.FieldList
				switch typ := s.Type.(type) {
				case *ast.StructType:
					members = typ.Fields
				case *ast.InterfaceType:
					members = typ.Methods
				}
				if members != nil {
					for _, f := range members.List {
						for _, id := range f.Names {
							add(s.Name.Name+"."+id.Name, id, false)
						}
					}
				}
			}
		}
	}
}

// receiver names the type a method is declared on.
func receiver(d *ast.FuncDecl) string {
	recv := d.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	switch idx := recv.(type) { // a method of a generic type
	case *ast.IndexExpr:
		recv = idx.X
	case *ast.IndexListExpr:
		recv = idx.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

var (
	docCodeSpan   = regexp.MustCompile("`[^`]+`")
	docIdentifier = regexp.MustCompile(`(^|[^\w./])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	docFileExt    = map[string]bool{"go": true, "md": true, "json": true, "jsonl": true, "pb": true}
)

// docFindings checks the `pkg.Ident` and `pkg.Type.Member` names in the
// code of one document against the importable packages named pkg (a
// package main directory of the same base name does not count) and
// returns what does not resolve, and how many names it checked.
func docFindings(m *module, doc, text string) (findings []string, checked int) {
	byName := map[string][]*modPkg{}
	for _, p := range m.pkgs {
		if p.importable() {
			byName[p.name] = append(byName[p.name], p)
		}
	}
	declares := func(pkgs []*modPkg, key string) bool {
		for _, p := range pkgs {
			if p.decls[key] {
				return true
			}
		}
		return false
	}
	check := func(from, to int) { // text[from:to] is code
		for _, at := range docIdentifier.FindAllStringSubmatchIndex(text[from:to], -1) {
			sub := func(i int) string {
				if at[2*i] < 0 {
					return ""
				}
				return text[from+at[2*i] : from+at[2*i+1]]
			}
			pkg, ident, member := sub(2), sub(3), sub(4)
			line := 1 + strings.Count(text[:from+at[4]], "\n")
			pkgs, ours := byName[pkg]
			switch {
			case !ours, docFileExt[ident], strings.Contains(ident, "_"):
				continue
			case !declares(pkgs, ident):
				findings = append(findings, fmt.Sprintf("%s:%d: `%s.%s`: package %s declares no %s", doc, line, pkg, ident, pkg, ident))
			case member != "" && !declares(pkgs, ident+"."+member):
				findings = append(findings, fmt.Sprintf("%s:%d: `%s.%s.%s`: %s.%s has no method or field %s", doc, line, pkg, ident, member, pkg, ident, member))
			}
			checked++
		}
	}
	// Fences split the text into prose (even pieces: its code is in
	// spans, which may wrap a line) and code blocks (odd pieces).
	at := 0
	for i, piece := range strings.Split(text, "```") {
		if i%2 == 1 {
			check(at, at+len(piece))
		} else {
			for _, span := range docCodeSpan.FindAllStringIndex(piece, -1) {
				check(at+span[0], at+span[1])
			}
		}
		at += len(piece) + len("```")
	}
	return findings, checked
}

// DESIGN.md and README.md name code the reader will go and look for:
// every `pkg.Ident` and `pkg.Type.Member` inside a code span or a fenced
// block whose pkg is an importable package of this module must resolve to
// a declaration, so a rename or a deletion that leaves the docs behind
// fails here. Two shapes are not identifiers: a name with a file
// extension (`chaos.go`, `cpu.pb.gz`) and a snake_case one (`sim.sharded_cost_ratio`
// is a benchmark metric; no Go name in this module has an underscore).
func TestDocIdentifiers(t *testing.T) {
	root := filepath.Join("..", "..")
	m := modulePackages(t, root)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		raw, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		findings, checked := docFindings(m, doc, string(raw))
		for _, f := range findings {
			t.Error(f)
		}
		if checked == 0 {
			t.Errorf("%s: no identifier checked — the scan is broken", doc)
		}
	}
}

// testHooks are the exported identifiers under internal/ that only tests
// call, each with the reason it stays. An entry whose name is gone or has
// gained a non-test caller is stale and fails the guard.
var testHooks = map[string]string{
	"raceflag.Enabled":              "the allocation guards (TestAllocs*) skip themselves under -race",
	"roce.Stack.SetDebugFaults":     "arms the deliberate protocol bugs the chaos checker's fire drills must catch",
	"filter.Reference":              "the host-side reference the filter kernel's results are compared against",
	"traversal.Reference":           "the host-side reference the traversal kernel's lookups are compared against",
	"fabric.Link.SetOfflineAtoB":    "one-direction blackhole for the transport recovery tests",
	"fabric.Link.SetOfflineBtoA":    "one-direction blackhole for the transport recovery tests",
	"fabric.DropFrame":              "drops the nth frame of a direction, the recovery tests' one-loss script",
	"chaos.Injector.Records":        "the fault log the replay determinism tests compare run to run",
	"chaos.Injector.ScheduleDigest": "the fault-schedule digest the replay determinism tests compare run to run",
	"hostmem.Memory.Watches":        "cpu's poll tests count watches to prove every way out of a poll unwatches",
	"core.Controller.Snapshot":      "the untimed register file the determinism tests compare run to run",
}

// stdMethods are the methods the standard library calls through its
// interfaces (error, fmt.Stringer, errors.Unwrap): a type gains them to be
// handed to it, so they need no caller of their own.
var stdMethods = map[string]bool{"Error": true, "String": true, "Unwrap": true}

// unusedDecls lists the top-level declarations under internal/ that no
// non-test file references: an exported one that no non-test file in the
// module names, an unexported one that no non-test file of its own package
// names, and a stale entry of hooks. It also counts the exported
// declarations it looked at.
//
// A package-level name counts as referenced through `pkg.Name` (resolved
// through the file's imports) or, inside its own package, as a bare
// `Name`. A method counts as referenced by any selector of its name, so
// two methods that share a name hide each other and the check is a lower
// bound. Public API needs no caller: a method of a type the root package
// aliases (`type NIC = core.NIC`), and a method in stdMethods.
func unusedDecls(m *module, hooks map[string]string) (findings []string, exported int) {
	qualified := map[string]bool{}        // "dir.Name" named as pkg.Name
	selected := map[string]bool{}         // every selector's name
	local := map[string]map[string]bool{} // by dir: bare names, selector names
	aliased := map[string]bool{}          // "dir.Type" the root package aliases
	decl := map[*ast.Ident]bool{}         // the idents that declare, not reference
	for _, p := range m.pkgs {
		for _, d := range p.top {
			decl[d.id] = true
		}
	}
	for _, p := range m.pkgs {
		seen := map[string]bool{}
		local[p.dir] = seen
		for _, file := range p.files {
			imports := map[string]string{} // local name -> directory
			for _, imp := range file.Imports {
				ipath := strings.Trim(imp.Path.Value, `"`)
				dir, ok := strings.CutPrefix(ipath, m.path+"/")
				if ipath == m.path {
					dir, ok = ".", true
				}
				if !ok || m.pkgs[dir] == nil {
					continue
				}
				name := m.pkgs[dir].name
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = dir
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					selected[n.Sel.Name] = true
					seen["."+n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						qualified[imports[x.Name]+"."+n.Sel.Name] = true
						return false
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					if !decl[n] {
						seen[n.Name] = true
					}
				case *ast.TypeSpec:
					if sel, ok := n.Type.(*ast.SelectorExpr); ok && n.Assign.IsValid() && p.dir == "." {
						if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
							aliased[imports[x.Name]+"."+sel.Sel.Name] = true
						}
					}
				}
				return true
			}
			ast.Inspect(file, visit)
		}
	}

	dirs := make([]string, 0, len(m.pkgs))
	for dir := range m.pkgs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	known := map[string]bool{} // every key declared under internal/
	for _, dir := range dirs {
		p := m.pkgs[dir]
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, d := range p.top {
			typ, name, method := strings.Cut(d.key, ".")
			if !method {
				name = typ
			}
			key := p.name + "." + d.key
			known[key] = true
			var used bool
			switch {
			case !ast.IsExported(name) && method:
				used = local[dir]["."+name]
			case !ast.IsExported(name):
				used = local[dir][name]
			case method:
				used = selected[name] || stdMethods[name] || aliased[dir+"."+typ]
			default:
				used = qualified[dir+"."+name] || local[dir][name]
			}
			if ast.IsExported(name) {
				exported++
			}
			switch _, hook := hooks[key]; {
			case hook && used:
				findings = append(findings, fmt.Sprintf("%s: %s is allowlisted as a test hook but has a non-test caller", m.fset.Position(d.id.Pos()), key))
			case hook || used:
			case ast.IsExported(name):
				findings = append(findings, fmt.Sprintf("%s: %s is exported but no non-test file references it", m.fset.Position(d.id.Pos()), key))
			default:
				findings = append(findings, fmt.Sprintf("%s: %s is unexported and no non-test file of its package references it", m.fset.Position(d.id.Pos()), key))
			}
		}
	}
	keys := make([]string, 0, len(hooks))
	for key := range hooks {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if !known[key] {
			findings = append(findings, fmt.Sprintf("allowlisted test hook %s is declared nowhere under internal/", key))
		}
	}
	return findings, exported
}

// Every exported top-level func, method, type, var and const under
// internal/ has a caller outside the tests, and so has every unexported
// one inside its own package: code that only tests reach is deleted,
// moved into the tests (an export_test.go), or declared in testHooks.
func TestExportedIdentifiersHaveCallers(t *testing.T) {
	m := modulePackages(t, filepath.Join("..", ".."))
	findings, exported := unusedDecls(m, testHooks)
	for _, f := range findings {
		t.Error(f)
	}
	if len(testHooks) > 15 {
		t.Errorf("%d test hooks allowlisted; the limit is 15", len(testHooks))
	}
	if exported == 0 {
		t.Error("no exported identifier found under internal/ — the scan is broken")
	}
	t.Logf("exported identifiers under internal/: %d, allowlisted: %d", exported, len(testHooks))
}

// The fire drill for both checks: a fixture module in which each finds
// exactly what was planted. The guard reports an unused exported func, an
// unused unexported one and two stale hooks (one gone, one called), and
// stays quiet on a func a main calls (kvstore.Put), an aliased type's
// method and a declared hook. The doc check fails a name that only a
// package main of the same base name declares.
func TestSourceChecksFireDrill(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fix\n\ngo 1.23\n",
		"fix.go": `package fix

import "fix/internal/inner"

// Thing is public API, and so are its methods.
type Thing = inner.Thing

var _ = inner.Used
`,
		"internal/inner/inner.go": `package inner

type Thing struct{}

func (Thing) Public() {}

func Used()   {}
func Unused() {}
func Hook()   {}
func unused() {}
func kept()   {}

var _ = kept
`,
		"internal/inner/inner_test.go": `package inner

func init() { Unused(); unused() }
`,
		"internal/kvstore/kvstore.go": "package kvstore\n\nfunc Put() {}\n",
		"examples/kvstore/main.go": `package main

import "fix/internal/kvstore"

func Scan() {}

func main() { kvstore.Put(); Scan() }
`,
	}
	for name, body := range files {
		file := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m := modulePackages(t, root)

	hooks := map[string]string{"inner.Hook": "kept", "inner.Gone": "deleted", "inner.Used": "now called"}
	findings, exported := unusedDecls(m, hooks)
	want := []string{
		"inner.go:7:6: inner.Used is allowlisted as a test hook but has a non-test caller",
		"inner.go:8:6: inner.Unused is exported but no non-test file references it",
		"inner.go:10:6: inner.unused is unexported and no non-test file of its package references it",
		"allowlisted test hook inner.Gone is declared nowhere under internal/",
	}
	if exported != 6 {
		t.Errorf("exported = %d, want 6 (Thing, Thing.Public, Used, Unused, Hook, Put)", exported)
	}
	checkFindings(t, "unusedDecls", findings, want)

	doc := "`kvstore.Put` is stored; `kvstore.Scan` lives in examples/kvstore only."
	findings, checked := docFindings(m, "doc.md", doc)
	if checked != 2 {
		t.Errorf("docFindings checked %d names, want 2", checked)
	}
	checkFindings(t, "docFindings", findings, []string{"doc.md:1: `kvstore.Scan`: package kvstore declares no Scan"})
}

// checkFindings compares findings with want, each a suffix of its match.
func checkFindings(t *testing.T, check string, findings, want []string) {
	t.Helper()
	if len(findings) != len(want) {
		t.Errorf("%s found %d, want %d:\n%s", check, len(findings), len(want), strings.Join(findings, "\n"))
		return
	}
	for i, f := range findings {
		if !strings.HasSuffix(f, want[i]) {
			t.Errorf("%s finding %d = %q, want suffix %q", check, i, f, want[i])
		}
	}
}
