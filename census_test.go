package aru_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// censusAllowlist names the exported declarations of internal/ that no
// non-test file of the module uses, kept on purpose. A key is the
// package directory and the name, with a method's receiver type between
// them; the value says why the name stays.
var censusAllowlist = map[string]string{
	"internal/alloctest.CheckBytes":   "the allocation-budget library the TestAllocs* gates of several packages share",
	"internal/core.LLD.OpenSnapshots": "the count an operator needs to tell which snapshot pins the log; the core and linearize suites check it for leaked handles",
	"internal/ldnet.Client.ReadAsync": "the pipelined read, twin of the WriteAsync benchmark/w_net.go pipelines",
	"internal/ldnet.wireError.Unwrap": "errors.Is and errors.As call it to match a wire error to its sentinel",
	"internal/minixfs.FS.Link":        "aru.FS API: the facade's file system for programs outside the module",
	"internal/minixfs.FS.MetaList":    "aru.FS API: the facade's file system for programs outside the module",
	"internal/minixfs.FS.Rmdir":       "aru.FS API: the facade's file system for programs outside the module",
	"internal/minixfs.FS.Statfs":      "aru.FS API: the facade's file system for programs outside the module",
	"internal/shard.Disk.Shard":       "the shard-scaling gate flushes one shard's engine alone, which no other API does",
}

// TestExportedNamesHaveCallers is the census of exported names: every
// exported func, method, type, var or const declared in a non-test file
// under internal/ must be used as an identifier by some non-test file of
// the module (cmd/ and benchmark/ included), or be on
// censusAllowlist. A name only tests call belongs in its package's test
// files. Uses are counted by name, not by type, so a name that shares
// its spelling with a used one passes: the census is a floor.
func TestExportedNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	declared := map[string]token.Position{}
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		decls := censusDecls(f)
		if strings.HasPrefix(dir, "internal/") {
			for id, key := range decls {
				if key != "" && id.IsExported() {
					declared[dir+"."+key] = fset.Position(id.Pos())
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if _, isDecl := decls[id]; !isDecl {
					used[id.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for key, pos := range declared {
		name := key[strings.LastIndex(key, ".")+1:]
		_, allowed := censusAllowlist[key]
		switch {
		case !used[name] && !allowed:
			unused = append(unused, pos.String()+": "+key+" has no caller outside tests")
		case used[name] && allowed:
			unused = append(unused, key+" is used: drop its census allowlist entry")
		}
	}
	for key := range censusAllowlist {
		if _, ok := declared[key]; !ok {
			unused = append(unused, key+" is on the census allowlist but not declared")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Error(u)
	}
}

// censusDecls maps each name a file declares at package level, and each
// struct field name, to its census key (the name, or Recv.Name for a
// method; fields map to ""). Those identifiers are declarations, not uses.
func censusDecls(f *ast.File) map[*ast.Ident]string {
	decls := map[*ast.Ident]string{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			key := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				key = censusRecv(d.Recv.List[0].Type) + "." + key
			}
			decls[d.Name] = key
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					decls[s.Name] = s.Name.Name
				case *ast.ValueSpec:
					for _, id := range s.Names {
						decls[id] = id.Name
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if st, ok := n.(*ast.StructType); ok {
			for _, fld := range st.Fields.List {
				for _, id := range fld.Names {
					decls[id] = ""
				}
			}
		}
		return true
	})
	return decls
}

// censusRecv names a method's receiver type without pointer or type
// parameters.
func censusRecv(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return censusRecv(e.X)
	case *ast.IndexExpr:
		return censusRecv(e.X)
	case *ast.IndexListExpr:
		return censusRecv(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
