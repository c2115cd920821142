package experiments

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
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
	tests []string        // the Test, Fuzz and Example funcs of its test files
	info  *types.Info     // what its non-test files define and use, once type-checked
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
				if ok, err := build.Default.MatchFile(dir, filepath.Base(name)); err != nil || !ok {
					continue // excluded by a build constraint, as go build would
				}
				test := strings.HasSuffix(name, "_test.go")
				if !test {
					p.name = file.Name.Name
					p.files = append(p.files, file)
				}
				for _, decl := range file.Decls {
					declared(decl, p, test)
					if fn, ok := decl.(*ast.FuncDecl); ok && test && fn.Recv == nil && goTestName.MatchString(fn.Name.Name) {
						p.tests = append(p.tests, fn.Name.Name)
					}
				}
			}
		}
		// Map order must not leak into what the checks report.
		sort.Slice(p.files, func(i, j int) bool { return p.files[i].Pos() < p.files[j].Pos() })
		sort.Slice(p.top, func(i, j int) bool { return p.top[i].id.Pos() < p.top[j].id.Pos() })
		sort.Strings(p.tests)
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

// goTestName matches the funcs go test runs and -run selects.
var goTestName = regexp.MustCompile(`^(Test|Fuzz|Example)([^a-z]|$)`)

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

// docs are the documents that name code and DESIGN sections for a reader
// to go and look up.
var docs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// The docs name code the reader will go and look for:
// every `pkg.Ident` and `pkg.Type.Member` inside a code span or a fenced
// block whose pkg is an importable package of this module must resolve to
// a declaration, so a rename or a deletion that leaves the docs behind
// fails here. Two shapes are not identifiers: a name with a file
// extension (`chaos.go`, `cpu.pb.gz`) and a snake_case one (`sim.sharded_cost_ratio`
// is a benchmark metric; no Go name in this module has an underscore).
func TestDocIdentifiers(t *testing.T) {
	root := filepath.Join("..", "..")
	m := modulePackages(t, root)
	for _, doc := range docs {
		raw, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(doc)))
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
	"core.Controller.Read":          "public surface reached through an aliased type's method, strom.NIC.Controller(): the timed MMIO register read",
	"stats.Figure.Lookup":           "the figure-shape assertions and the per-figure benchmarks read one cell by series and x label",
	"sim.Engine.SetHorizon":         "the runaway-safety net: a test whose simulation would run past its horizon panics instead of hanging",
	"sim.Backlog.Len":               "roce's ownership fire drill counts the frames still queued when the ACK arrives",
}

// stdMethods are the methods the standard library calls through its
// interfaces (error, fmt.Stringer, errors.Unwrap): a type gains them to be
// handed to it, so they need no caller of their own.
var stdMethods = map[string]bool{"Error": true, "String": true, "Unwrap": true}

// typeCheck type-checks the non-test files of every package of m and
// returns every object a non-test file refers to and, from the same uses,
// the interface methods called. Packages of the module are checked from
// the parsed files, the standard library from source.
func typeCheck(m *module) (uses map[types.Object]bool, ifaceCalls []*types.Func, err error) {
	imp := &modImporter{m: m, std: importer.ForCompiler(m.fset, "source", nil).(types.ImporterFrom), done: map[string]*types.Package{}}
	dirs := make([]string, 0, len(m.pkgs))
	for dir := range m.pkgs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	uses = map[types.Object]bool{}
	for _, dir := range dirs {
		if _, err := imp.check(dir); err != nil {
			return nil, nil, err
		}
		for _, obj := range m.pkgs[dir].info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
				if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceCalls = append(ifaceCalls, f)
				}
			}
			uses[obj] = true
		}
	}
	return uses, ifaceCalls, nil
}

// modImporter resolves the module's own import paths to packages it
// type-checks once each, and every other path through std.
type modImporter struct {
	m    *module
	std  types.ImporterFrom
	done map[string]*types.Package // by directory
}

func (imp *modImporter) Import(path string) (*types.Package, error) {
	return imp.ImportFrom(path, "", 0)
}

func (imp *modImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == imp.m.path {
		return imp.check(".")
	}
	if rel, ok := strings.CutPrefix(path, imp.m.path+"/"); ok && imp.m.pkgs[rel] != nil {
		return imp.check(rel)
	}
	return imp.std.ImportFrom(path, dir, mode)
}

// check type-checks the non-test files of the package in dir.
func (imp *modImporter) check(dir string) (*types.Package, error) {
	if pkg, ok := imp.done[dir]; ok {
		return pkg, nil
	}
	p := imp.m.pkgs[dir]
	if len(p.files) == 0 {
		return nil, fmt.Errorf("%s: no non-test files", dir)
	}
	p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path.Join(imp.m.path, dir), imp.m.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	imp.done[dir] = pkg
	return pkg, nil
}

// unusedDecls lists the top-level declarations under internal/ that no
// non-test file references: an exported one that no non-test file in the
// module names, an unexported one that no non-test file of its own package
// names, and a stale entry of hooks. It also counts the exported
// declarations it looked at.
//
// References are resolved by go/types, so a method is used when a
// non-test file selects that method of that type (two methods that share
// a name stay apart), or calls an interface method it implements. Public
// API needs no caller: a method of a type the root package aliases
// (`type NIC = core.NIC`), and a method in stdMethods.
func unusedDecls(m *module, hooks map[string]string) (findings []string, exported int, err error) {
	uses, ifaceCalls, err := typeCheck(m)
	if err != nil {
		return nil, 0, err
	}
	// implements reports whether the method f of a named type fills an
	// interface method some non-test file calls.
	implements := func(f *types.Func) bool {
		recv := f.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			return false
		}
		for _, call := range ifaceCalls {
			iface, _ := call.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if call.Name() == f.Name() && iface != nil && (types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				return true
			}
		}
		return false
	}
	aliased := map[string]bool{} // "dir.Type" the root package aliases
	if root := m.pkgs["."]; root != nil {
		for _, obj := range root.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() && tn.Parent() == tn.Pkg().Scope() {
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok && named.Obj().Pkg() != nil {
					aliased[strings.TrimPrefix(named.Obj().Pkg().Path(), m.path+"/")+"."+named.Obj().Name()] = true
				}
			}
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
			obj := p.info.Defs[d.id]
			used := uses[obj]
			if f, ok := obj.(*types.Func); ok && method && !used {
				used = implements(f) || ast.IsExported(name) && (stdMethods[name] || aliased[dir+"."+typ])
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
	return findings, exported, nil
}

// Every exported top-level func, method, type, var and const under
// internal/ has a caller outside the tests, and so has every unexported
// one inside its own package: code that only tests reach is deleted,
// moved into the tests (an export_test.go), or declared in testHooks.
func TestExportedIdentifiersHaveCallers(t *testing.T) {
	m := modulePackages(t, filepath.Join("..", ".."))
	findings, exported, err := unusedDecls(m, testHooks)
	if err != nil {
		t.Fatal(err)
	}
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

// The fire drill for the source checks: a fixture module in which each
// finds exactly what was planted. The caller guard reports an unused
// exported func, an unused unexported one, a method only a test calls
// although a method of the same name on another type is called
// (Stack.Len beside Queue.Len), and two stale hooks (one gone, one
// called), and stays quiet on a func a main calls (kvstore.Put), an
// aliased type's method, a method called through an interface it
// implements (Box.Size) and a declared hook. The doc check fails a name
// that only a package main of the same base name declares; the section
// check a reference to a heading DESIGN.md lacks, from DESIGN.md itself
// or another file, but not a paper section; the Makefile check a -run
// alternative that selects no test of its line's packages.
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

type Queue struct{}
type Stack struct{}
type Box struct{}
type Sizer interface{ Size() int }

func (Queue) Len() int { return 0 }
func (Stack) Len() int { return 0 }
func (Box) Size() int  { return 0 }

func size(s Sizer) int { return s.Size() }

var _ = Queue{}.Len() + size(Box{})
`,
		"internal/inner/inner_test.go": `package inner

import "testing"

func init() { Unused(); unused() }

func TestStackLen(t *testing.T) { Stack{}.Len() }
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
	findings, exported, err := unusedDecls(m, hooks)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"inner.go:7:6: inner.Used is allowlisted as a test hook but has a non-test caller",
		"inner.go:8:6: inner.Unused is exported but no non-test file references it",
		"inner.go:10:6: inner.unused is unexported and no non-test file of its package references it",
		"inner.go:21:14: inner.Stack.Len is exported but no non-test file references it",
		"allowlisted test hook inner.Gone is declared nowhere under internal/",
	}
	if exported != 13 {
		t.Errorf("exported = %d, want 13 (Thing, Thing.Public, Used, Unused, Hook, Queue, Stack, Box, Sizer, Queue.Len, Stack.Len, Box.Size, Put)", exported)
	}
	checkFindings(t, "unusedDecls", findings, want)

	doc := "`kvstore.Put` is stored; `kvstore.Scan` lives in examples/kvstore only."
	findings, checked := docFindings(m, "doc.md", doc)
	if checked != 2 {
		t.Errorf("docFindings checked %d names, want 2", checked)
	}
	checkFindings(t, "docFindings", findings, []string{"doc.md:1: `kvstore.Scan`: package kvstore declares no Scan"})

	design := "## 1. sim\n\n### 1.4 ShardGroup\n\nSee §1.4 and §2, and paper §3.5 and §4.\n"
	findings, checked = sectionFindings(design, "DESIGN.md", design)
	if checked != 2 {
		t.Errorf("sectionFindings checked %d DESIGN.md references, want 2", checked)
	}
	checkFindings(t, "sectionFindings", findings, []string{"DESIGN.md:5: §2: DESIGN.md has no section 2"})
	readme := "The rule is DESIGN.md §1.4, §1; the switch `DESIGN.md` §6.\n// (DESIGN\n// §1.9) and §7, outside a reference.\n"
	findings, checked = sectionFindings(design, "README.md", readme)
	if checked != 4 {
		t.Errorf("sectionFindings checked %d README.md references, want 4", checked)
	}
	checkFindings(t, "sectionFindings", findings, []string{
		"README.md:1: §6: DESIGN.md has no section 6",
		"README.md:3: §1.9: DESIGN.md has no section 1.9",
	})

	makefile := "unit:\n\t$(GO) test -run 'StackLen/sub|Missing' ./internal/inner\n\t$(GO) test -run '^TestStackLen$$' ./...\n\t$(GO) test -run Stack ./examples/kvstore\n"
	findings, checked = makeRunFindings(m, makefile)
	if checked != 4 {
		t.Errorf("makeRunFindings checked %d alternatives, want 4", checked)
	}
	checkFindings(t, "makeRunFindings", findings, []string{
		`Makefile:2: -run alternative "Missing" selects no test in ./internal/inner`,
		`Makefile:4: -run alternative "Stack" selects no test in ./examples/kvstore`,
	})
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

var (
	designHeading = regexp.MustCompile(`(?m)^##+ (\d+(?:\.\d+)*)\.? `)
	sectionChain  = `§\s*\d+(?:\.\d+)?(?:(?:\s*,|\s+and|\s*/)\s*§\s*\d+(?:\.\d+)?)*`
	designRef     = regexp.MustCompile("DESIGN(?:\\.md)?`?[\\s/]*" + sectionChain)
	bareRef       = regexp.MustCompile(`(paper\s+)?` + sectionChain)
	sectionNumber = regexp.MustCompile(`§\s*(\d+(?:\.\d+)?)`)
)

// sectionFindings returns the references in text that name a section
// design does not have: in any document a `DESIGN.md §N` or `DESIGN §N.M`
// (and the `, §M` that follow it), and in DESIGN.md itself every bare
// `§N` — its own cross-references, the paper's sections being written
// `paper §N`.
func sectionFindings(design, doc, text string) (findings []string, checked int) {
	have := map[string]bool{}
	for _, h := range designHeading.FindAllStringSubmatch(design, -1) {
		have[h[1]] = true
	}
	refs := designRef.FindAllStringSubmatchIndex(text, -1)
	if doc == "DESIGN.md" {
		refs = bareRef.FindAllStringSubmatchIndex(text, -1)
	}
	for _, ref := range refs {
		if len(ref) > 2 && ref[2] >= 0 { // the paper's own sections
			continue
		}
		for _, at := range sectionNumber.FindAllStringSubmatchIndex(text[ref[0]:ref[1]], -1) {
			n := text[ref[0]+at[2] : ref[0]+at[3]]
			checked++
			if !have[n] {
				line := 1 + strings.Count(text[:ref[0]+at[0]], "\n")
				findings = append(findings, fmt.Sprintf("%s:%d: §%s: DESIGN.md has no section %s", doc, line, n, n))
			}
		}
	}
	return findings, checked
}

// designMaxBytes bounds DESIGN.md: a document that states each contract
// once stays short enough to be read whole.
const designMaxBytes = 50_000

// DESIGN.md stays under designMaxBytes, so a change that adds to it makes
// room by saying something else more briefly.
func TestDesignSize(t *testing.T) {
	fi, err := os.Stat(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= designMaxBytes {
		t.Errorf("DESIGN.md is %d B, want under %d", fi.Size(), designMaxBytes)
	}
}

// Every reference to a DESIGN.md section, from the docs, ROADMAP.md and
// any Go comment, names a heading DESIGN.md has, so a renumbering that
// leaves a reader pointed at the wrong section fails here.
func TestDesignSectionReferences(t *testing.T) {
	root := filepath.Join("..", "..")
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	files := append([]string{"ROADMAP.md"}, docs...)
	err = filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); d.IsDir() && file != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "ab.out") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(file, ".go") {
			rel, _ := filepath.Rel(root, file)
			files = append(files, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, doc := range files {
		raw, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(doc)))
		if err != nil {
			t.Fatal(err)
		}
		findings, checked := sectionFindings(string(design), doc, string(raw))
		for _, f := range findings {
			t.Error(f)
		}
		total += checked
	}
	if total == 0 {
		t.Error("no section reference checked — the scan is broken")
	}
}

// makeRun matches a go test line's -run pattern (quoted or bare) and the
// package arguments after it.
var makeRun = regexp.MustCompile(`-run[= ](?:'([^']*)'|(\S+))((?:\s+\.\S*)+)`)

// makeRunFindings checks every -run pattern of makefile against the test
// funcs of the packages its line names: each alternative of the pattern
// (for A/B, its top-level part A) must select at least one of them, so a
// target cannot silently run less than its comment promises.
func makeRunFindings(m *module, makefile string) (findings []string, checked int) {
	for i, line := range strings.Split(makefile, "\n") {
		at := makeRun.FindStringSubmatch(line)
		if at == nil {
			continue
		}
		pattern := strings.ReplaceAll(at[1]+at[2], "$$", "$")
		var tests []string
		for _, arg := range strings.Fields(at[3]) {
			dir, all := strings.CutSuffix(strings.TrimPrefix(arg, "./"), "...")
			dir = strings.TrimSuffix(dir, "/")
			for d, p := range m.pkgs {
				if d == dir || all && (dir == "" || strings.HasPrefix(d, dir+"/")) {
					tests = append(tests, p.tests...)
				}
			}
		}
		for _, alt := range strings.Split(pattern, "|") {
			alt, _, _ = strings.Cut(alt, "/") // go test matches A/B's A against the top-level names
			checked++
			re, err := regexp.Compile(alt)
			if err != nil {
				findings = append(findings, fmt.Sprintf("Makefile:%d: -run alternative %q: %v", i+1, alt, err))
				continue
			}
			if !slices.ContainsFunc(tests, re.MatchString) {
				findings = append(findings, fmt.Sprintf("Makefile:%d: -run alternative %q selects no test in%s", i+1, alt, at[3]))
			}
		}
	}
	return findings, checked
}

// Every alternative of every Makefile -run pattern selects a test.
func TestMakefileRunPatterns(t *testing.T) {
	root := filepath.Join("..", "..")
	raw, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	findings, checked := makeRunFindings(modulePackages(t, root), string(raw))
	for _, f := range findings {
		t.Error(f)
	}
	if checked == 0 {
		t.Error("no -run alternative checked — the scan is broken")
	}
}
