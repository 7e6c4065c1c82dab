// Command cellsvet enforces the hbase.Cells immutability rule across the
// repository: Cells returned by the read path are windows into shared
// arenas and pooled buffers, so callers must never append to them, write
// through their elements, or re-slice them beyond their length. The rule
// is documented on the Cells type; this tool promotes it from a comment to
// a build-breaking check (run in CI next to gofmt and go vet):
//
//	go run ./cmd/cellsvet ./...
//
// Flagged operations, on any value whose static type is hbase.Cells:
//
//   - append(cells, ...) — growing a window can write into the arena
//     cells beyond it (or, post-clip, silently alias a new array while
//     the caller believes it extended the original);
//   - writes through an index expression (cells[i] = p, cells[i].TS = 0,
//     cells[i].Value[0] = b, &cells[i] escapes excluded — any assignment
//     or ++/-- whose target passes through cells[i]);
//   - full slice expressions (cells[a:b:c]) — capacity surgery is how
//     owners clip windows, and how a caller would un-clip one.
//
// The handful of legitimate owners (the rowdata arena filler, the clone
// helpers, the overlay merge, codec choke points) carry a
// "//cellsvet:owner" line in the doc comment of the owning function;
// everything inside that function (closures included) is exempt.
//
// The tool is self-contained on the standard library (go/parser +
// go/types): repo-internal imports resolve through an importer that
// type-checks package directories recursively, everything else through
// the compiler's source importer. Test files are analyzed too — both
// in-package _test.go files and external _test packages, which see the
// package with its in-package test files as go test builds them.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// cellsTypeName is the fully-qualified defined type the rule protects.
const cellsTypeName = "synergy/internal/hbase.Cells"

// ownerMarker in a function's doc comment exempts its body.
const ownerMarker = "cellsvet:owner"

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	findings, err := run(".", args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cellsvet:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "cellsvet: %d violation(s) of the Cells immutability rule\n", len(findings))
		os.Exit(1)
	}
}

// run analyzes the packages matched by patterns (directories, or dir/...
// for a recursive walk) relative to dir, returning one "file:line: msg"
// string per violation, sorted by position.
func run(dir string, patterns []string) ([]string, error) {
	root, module, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(dir, patterns)
	if err != nil {
		return nil, err
	}
	c := newChecker(root, module)
	var findings []string
	for _, d := range dirs {
		d, err := filepath.Abs(d)
		if err != nil {
			return nil, err
		}
		fs, err := c.checkDir(d)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	sort.Strings(findings)
	return findings, nil
}

// moduleRoot walks upward from dir to the enclosing go.mod and returns the
// root directory and module path.
func moduleRoot(dir string) (root, module string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("no go.mod above %s", abs)
		}
	}
}

// expandPatterns resolves the argument patterns to package directories.
// "testdata" subtrees and dot-directories are skipped, matching the go
// tool's convention — which is what lets this tool's own seeded-violation
// fixtures live under testdata without failing the repo-wide run.
func expandPatterns(base string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, rest
		}
		pat = filepath.Join(base, pat)
		if !recursive {
			add(pat)
			continue
		}
		err := filepath.WalkDir(pat, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != pat && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// checker type-checks repo packages on demand and scans their syntax for
// rule violations.
type checker struct {
	fset   *token.FileSet
	root   string // module root directory
	module string // module path
	std    types.Importer
	pure   map[string]*types.Package // import path -> non-test package
	// base and over are set on a checker that resolves over as the package
	// with its in-package test files (pure[over]): the repo packages that
	// import over are checked again against it, the rest come from base.
	base *checker
	over string
	deps map[string]bool // import path -> imports over, directly or not
}

func newChecker(root, module string) *checker {
	fset := token.NewFileSet()
	return &checker{
		fset:   fset,
		root:   root,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil),
		pure:   map[string]*types.Package{},
	}
}

// Import resolves repo-internal paths by type-checking the package
// directory (memoized, test files excluded) and delegates everything else
// to the source importer. It makes the checker a types.Importer, which is
// what lets repo packages import each other during analysis.
func (c *checker) Import(path string) (*types.Package, error) {
	if path != c.module && !strings.HasPrefix(path, c.module+"/") {
		return c.std.Import(path)
	}
	if pkg, ok := c.pure[path]; ok {
		return pkg, nil
	}
	if c.base != nil && !c.imports(path) {
		return c.base.Import(path)
	}
	bp, err := build.ImportDir(c.dir(path), 0)
	if err != nil {
		return nil, err
	}
	files, err := c.parse(bp.Dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, nil)
	if err != nil {
		return nil, err
	}
	c.pure[path] = pkg
	return pkg, nil
}

func (c *checker) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// seeded returns a checker that resolves path to pkg, the package with its
// in-package test files, and checks the repo packages importing path again
// against it — what go test compiles for an external test package.
func (c *checker) seeded(path string, pkg *types.Package) *checker {
	return &checker{fset: c.fset, root: c.root, module: c.module, std: c.std,
		pure: map[string]*types.Package{path: pkg}, base: c, over: path, deps: map[string]bool{}}
}

// dir is the directory of a repo package.
func (c *checker) dir(path string) string {
	return filepath.Join(c.root, strings.TrimPrefix(strings.TrimPrefix(path, c.module), "/"))
}

// imports reports whether repo package path imports c.over, directly or not.
func (c *checker) imports(path string) bool {
	if dep, ok := c.deps[path]; ok {
		return dep
	}
	c.deps[path] = false
	if bp, err := build.ImportDir(c.dir(path), 0); err == nil {
		for _, imp := range bp.Imports {
			if imp == c.over || strings.HasPrefix(imp, c.module+"/") && c.imports(imp) {
				c.deps[path] = true
				break
			}
		}
	}
	return c.deps[path]
}

// checkDir analyzes one package directory: the package proper with its
// in-package test files as one unit, and the external _test package (if
// any) as another.
func (c *checker) checkDir(dir string) ([]string, error) {
	rel, err := filepath.Rel(c.root, dir)
	if err != nil {
		return nil, err
	}
	path := c.module
	if rel != "." {
		path = c.module + "/" + filepath.ToSlash(rel)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, err
	}
	var findings []string
	var withTests *types.Package
	units := []struct {
		id    string
		names []string
	}{
		{path, append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...)},
		{path + "_test", bp.XTestGoFiles},
	}
	for _, u := range units {
		if len(u.names) == 0 {
			continue
		}
		files, err := c.parse(dir, u.names)
		if err != nil {
			return nil, err
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		// As go test builds it, the external test package — and every repo
		// package it imports — sees the package with its in-package test
		// files (an export_test.go).
		var imp types.Importer = c
		if withTests != nil {
			imp = c.seeded(path, withTests)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(u.id, c.fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", u.id, err)
		}
		if u.id == path && len(bp.TestGoFiles) > 0 {
			withTests = pkg
		}
		for _, f := range files {
			findings = append(findings, c.scanFile(f, info)...)
		}
	}
	return findings, nil
}

// scanFile reports rule violations in one file. Only function bodies are
// scanned (package-level initializers cannot reach a live Cells window);
// a function whose doc comment carries the owner marker is exempt in full.
func (c *checker) scanFile(f *ast.File, info *types.Info) []string {
	var findings []string
	report := func(pos token.Pos, msg string) {
		findings = append(findings, fmt.Sprintf("%s: %s", c.fset.Position(pos), msg))
	}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || isOwner(fn.Doc) {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
					if _, builtin := info.Uses[id].(*types.Builtin); builtin && c.isCells(info, n.Args[0]) {
						report(n.Pos(), "append to hbase.Cells: returned Cells are immutable windows; Clone first")
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if base, ok := c.cellsIndexBase(info, lhs); ok {
						report(base.Pos(), "write through hbase.Cells element: returned Cells are immutable; Clone first")
					}
				}
			case *ast.IncDecStmt:
				if base, ok := c.cellsIndexBase(info, n.X); ok {
					report(base.Pos(), "write through hbase.Cells element: returned Cells are immutable; Clone first")
				}
			case *ast.SliceExpr:
				if n.Slice3 && c.isCells(info, n.X) {
					report(n.Pos(), "full slice expression on hbase.Cells: capacity surgery is reserved for annotated owners")
				}
			}
			return true
		})
	}
	return findings
}

// cellsIndexBase unwraps an assignment target and reports whether the
// write lands through an index into a Cells value — cells[i] itself, a
// field of cells[i], or anything reached from one (cells[i].Value[0]).
func (c *checker) cellsIndexBase(info *types.Info, e ast.Expr) (ast.Expr, bool) {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			if c.isCells(info, t.X) {
				return t, true
			}
			e = t.X
		default:
			return nil, false
		}
	}
}

func (c *checker) isCells(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	return ok && named.String() == cellsTypeName
}

func isOwner(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, line := range doc.List {
		if strings.Contains(line.Text, ownerMarker) {
			return true
		}
	}
	return false
}
