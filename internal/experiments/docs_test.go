package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// modulePackages parses every package directory of the module and
// returns, by the directory's base name ("strom" for the root), the
// names it declares: "Ident" for every top-level declaration and
// "Type.Member" for every method, struct field and interface method.
// Two directories that share a base name share an entry.
func modulePackages(t *testing.T, root string) map[string]map[string]bool {
	t.Helper()
	pkgs := map[string]map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "ab.out") {
			return filepath.SkipDir
		}
		parsed, err := parser.ParseDir(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if len(parsed) == 0 {
			return nil
		}
		name := filepath.Base(path)
		if path == root {
			name = "strom"
		}
		decls := pkgs[name]
		if decls == nil {
			decls = map[string]bool{}
			pkgs[name] = decls
		}
		for _, pkg := range parsed {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					declared(decl, decls)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// declared records what one top-level declaration declares.
func declared(decl ast.Decl, into map[string]bool) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			into[d.Name.Name] = true
			return
		}
		recv := d.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if idx, ok := recv.(*ast.IndexExpr); ok { // method of a generic type
			recv = idx.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			into[id.Name+"."+d.Name.Name] = true
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec:
				for _, id := range s.Names {
					into[id.Name] = true
				}
			case *ast.TypeSpec:
				into[s.Name.Name] = true
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
							into[s.Name.Name+"."+id.Name] = true
						}
					}
				}
			}
		}
	}
}

var (
	docCodeSpan   = regexp.MustCompile("`[^`]+`")
	docIdentifier = regexp.MustCompile(`(^|[^\w./])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	docFileExt    = map[string]bool{"go": true, "md": true, "json": true, "jsonl": true, "pb": true}
)

// DESIGN.md and README.md name code the reader will go and look for:
// every `pkg.Ident` and `pkg.Type.Member` inside a code span or a fenced
// block whose pkg is a package directory of this module must resolve to a
// declaration, so a rename or a deletion that leaves the docs behind
// fails here. Two shapes are not identifiers: a name with a file
// extension (`chaos.go`, `cpu.pb.gz`) and a snake_case one (`sim.sharded_cost_ratio`
// is a benchmark metric; no Go name in this module has an underscore).
func TestDocIdentifiers(t *testing.T) {
	root := filepath.Join("..", "..")
	pkgs := modulePackages(t, root)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		raw, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		text, checked := string(raw), 0
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
				decls, ours := pkgs[pkg]
				switch {
				case !ours, docFileExt[ident], strings.Contains(ident, "_"):
					continue
				case !decls[ident]:
					t.Errorf("%s:%d: `%s.%s`: package %s declares no %s", doc, line, pkg, ident, pkg, ident)
				case member != "" && !decls[ident+"."+member]:
					t.Errorf("%s:%d: `%s.%s.%s`: %s.%s has no method or field %s", doc, line, pkg, ident, member, pkg, ident, member)
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
		if checked == 0 {
			t.Errorf("%s: no identifier checked — the scan is broken", doc)
		}
	}
}
