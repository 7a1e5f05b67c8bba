// Command doccheck enforces the repo's godoc conventions without any
// external linters: every package must carry a package comment
// opening with the standard godoc phrase ("Package <name> ..." for
// libraries, "Command <name> ..." for main packages), and every
// exported top-level declaration (type, function, method, const/var
// group) must carry a doc comment. A command's doc comment may only
// name flags its own package defines: every flag token in it (a dash
// that starts a word, then a name) must match a flag constructor call
// such as fs.String("name", …) or flag.IntVar(&x, "name", …), so usage
// text cannot outlive a deleted flag. CI runs it over the whole tree —
// root, internal, cmd, tools, and examples; see
// .github/workflows/ci.yml and the README's documentation rule.
//
// Usage:
//
//	go run ./tools/doccheck . ./internal/... ./cmd/... ./tools/... ./examples/...
//
// Patterns ending in /... recurse. Test files are exempt, as are
// generated files (a "Code generated" header). Exit status is 1 when
// any package or symbol is undocumented, with one line per finding.
package main

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
	"strconv"
	"strings"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var dirs []string
	seen := make(map[string]bool)
	for _, arg := range args {
		for _, d := range expand(arg) {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	sort.Strings(dirs)
	bad := 0
	for _, dir := range dirs {
		bad += checkDir(dir)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", bad)
		os.Exit(1)
	}
}

// expand resolves one argument to the list of directories holding Go
// files: the directory itself, or every subdirectory for /... forms.
func expand(arg string) []string {
	root, recursive := strings.CutSuffix(arg, "/...")
	root = filepath.Clean(root)
	if !recursive {
		return []string{root}
	}
	var dirs []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return nil
		}
		if name := d.Name(); strings.HasPrefix(name, ".") && path != root {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// checkDir parses one package directory and reports undocumented
// exported declarations, returning the number of findings.
func checkDir(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
		return 1
	}
	bad := 0
	for name, pkg := range pkgs {
		doc := packageDoc(pkg)
		switch {
		case doc == "":
			fmt.Printf("%s: package %s has no package comment\n", dir, name)
			bad++
		case !strings.HasPrefix(doc, docPrefix(name)):
			// main packages are commands: their doc names the binary
			// ("Command iwserver ..."), not the package.
			fmt.Printf("%s: package %s doc comment does not start with %q\n", dir, name, docPrefix(name))
			bad++
		}
		if name == "main" {
			bad += checkFlags(dir, doc, pkg)
		}
		for file, f := range pkg.Files {
			if isGenerated(f) {
				continue
			}
			bad += checkFile(fset, file, f)
		}
	}
	return bad
}

// packageDoc returns the package's doc comment text, or "" when no
// file carries one.
func packageDoc(pkg *ast.Package) string {
	for _, f := range pkg.Files {
		if f.Doc != nil {
			if text := strings.TrimSpace(f.Doc.Text()); text != "" {
				return text
			}
		}
	}
	return ""
}

// docPrefix is the godoc opening phrase required of a package's doc
// comment. For libraries the full "Package <name> " is checked; main
// packages open with "Command " followed by the binary name, which
// the parse tree does not know, so only the phrase is checked.
func docPrefix(pkgName string) string {
	if pkgName == "main" {
		return "Command "
	}
	return "Package " + pkgName + " "
}

// flagToken matches a flag reference in prose: a dash that starts a
// word, followed by a lower-case flag name ("-addr", "-max-lag").
var flagToken = regexp.MustCompile(`(?:^|[^\w-])-([a-z][a-z0-9]*(?:-[a-z0-9]+)*)`)

// flagNameArg maps the flag package's constructors to the position of
// their name argument: the pointer-returning forms take it first, the
// *Var forms after the destination.
var flagNameArg = map[string]int{
	"Bool": 0, "BoolFunc": 0, "Duration": 0, "Float64": 0, "Func": 0,
	"Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "TextVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1,
}

// checkFlags reports every "-name" token in a command's doc comment
// that names no flag the package defines, returning the number of
// findings.
func checkFlags(dir, doc string, pkg *ast.Package) int {
	defined := make(map[string]bool)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			i, ok := flagNameArg[sel.Sel.Name]
			if !ok || i >= len(call.Args) {
				return true
			}
			if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					defined[name] = true
				}
			}
			return true
		})
	}
	bad := 0
	reported := make(map[string]bool)
	for _, m := range flagToken.FindAllStringSubmatch(doc, -1) {
		if name := m[1]; !defined[name] && !reported[name] {
			reported[name] = true
			fmt.Printf("%s: command doc names -%s, which the package does not define\n", dir, name)
			bad++
		}
	}
	return bad
}

// isGenerated detects the standard "Code generated ... DO NOT EDIT."
// marker in a file's leading comments.
func isGenerated(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.End() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "// Code generated") && strings.Contains(c.Text, "DO NOT EDIT") {
				return true
			}
		}
	}
	return false
}

// checkFile reports every undocumented exported top-level declaration
// in one file.
func checkFile(fset *token.FileSet, path string, f *ast.File) int {
	bad := 0
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		fmt.Printf("%s:%d: exported %s %s has no doc comment\n", path, p.Line, what, name)
		bad++
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			// One-line methods are exempt: tag methods of the
			// `func (*Hello) Type() MsgType { return TypeHello }`
			// shape are self-describing, and requiring a comment on
			// each member of such a block buries the real docs.
			oneLiner := d.Recv != nil &&
				fset.Position(d.Pos()).Line == fset.Position(d.End()).Line
			if d.Name.IsExported() && exportedRecv(d) && d.Doc == nil && !oneLiner {
				report(d.Pos(), "function", d.Name.Name)
			}
		case *ast.GenDecl:
			if d.Tok == token.IMPORT {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						// A group doc, a per-spec doc, or a trailing
						// line comment all count: const blocks often
						// document the family once.
						if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(n.Pos(), declKind(d.Tok), n.Name)
						}
					}
				}
			}
		}
	}
	return bad
}

// exportedRecv reports whether a method's receiver type is exported
// (methods on unexported types are internal detail even when the
// method name is capitalized).
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

func declKind(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}
