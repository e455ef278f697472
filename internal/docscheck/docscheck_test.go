// Package docscheck lints the godoc coverage of the packages that form
// fragmd's user-facing and scheduler API: every exported identifier —
// and the package clauses themselves — must carry a doc comment. The
// check is a plain go/ast walk, so it runs as an ordinary test with no
// external tooling.
package docscheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// targets are the packages whose exported API the lint covers,
// relative to this directory. The facade (repo root) and the scheduler
// core are the surfaces library users and backend authors read first.
var targets = []string{
	"../../",        // package fragmd: the public facade
	"../coord",      // scheduling policy core (backend authors)
	"../resilience", // checkpoint/restart API
	"../netcoord",   // distributed backend (operators)
	"../sched",      // live engine options and executor seam
	"../serve",      // trajectory-server API (service operators)
	"../par",        // the deterministic parallel loop (kernel authors)
}

// TestExportedAPIDocumented fails for every exported top-level
// declaration (func, method, type, var, const) without a doc comment,
// and for packages without a package comment.
func TestExportedAPIDocumented(t *testing.T) {
	for _, dir := range targets {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for name, pkg := range pkgs {
			if strings.HasSuffix(name, "_test") {
				continue
			}
			checkPackage(t, fset, name, pkg)
		}
	}
}

func checkPackage(t *testing.T, fset *token.FileSet, name string, pkg *ast.Package) {
	t.Helper()
	hasPkgDoc := false
	for _, f := range pkg.Files {
		if f.Doc != nil {
			hasPkgDoc = true
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedRecv(d) {
					continue
				}
				if d.Doc == nil {
					report(t, fset, d.Pos(), name, "func/method "+d.Name.Name)
				}
			case *ast.GenDecl:
				checkGenDecl(t, fset, name, d)
			}
		}
	}
	if !hasPkgDoc {
		t.Errorf("package %s has no package comment", name)
	}
}

// exportedRecv reports whether a method's receiver type is exported
// (methods on unexported types are not part of the public API).
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true // plain function
	}
	typ := d.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

func checkGenDecl(t *testing.T, fset *token.FileSet, pkgName string, d *ast.GenDecl) {
	t.Helper()
	switch d.Tok {
	case token.TYPE:
		for _, spec := range d.Specs {
			s := spec.(*ast.TypeSpec)
			if !s.Name.IsExported() {
				continue
			}
			if d.Doc == nil && s.Doc == nil {
				report(t, fset, s.Pos(), pkgName, "type "+s.Name.Name)
			}
		}
	case token.VAR, token.CONST:
		// A doc comment on the grouped decl covers the whole block;
		// otherwise each exported spec needs its own.
		for _, spec := range d.Specs {
			s := spec.(*ast.ValueSpec)
			for _, n := range s.Names {
				if !n.IsExported() {
					continue
				}
				if d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(t, fset, n.Pos(), pkgName, d.Tok.String()+" "+n.Name)
				}
			}
		}
	}
}

func report(t *testing.T, fset *token.FileSet, pos token.Pos, pkgName, what string) {
	t.Helper()
	p := fset.Position(pos)
	t.Errorf("%s:%d: exported %s in package %s has no doc comment",
		filepath.Base(p.Filename), p.Line, what, pkgName)
}
