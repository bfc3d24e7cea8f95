package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parseNonTest parses the non-test Go files of dir.
func parseNonTest(t *testing.T, dir string) (*token.FileSet, []*ast.File) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return fset, files
}

// TestVIPTablesKeyedByHandle is the source guard of the VIP handle
// design (DESIGN.md §22): non-test code in lbswitch, netmodel, dnsctl
// and core keys no map by a VIP address — a VIP, a VIPAddr, an
// ipv4.Addr, a string, or a struct of this package holding one of
// those — except the one
// address → handle table the fabric owns (lbswitch's vipTable.ix, made
// by newVIPTable).
// Per-VIP state lives in slices indexed by the fabric's handles, and
// core keeps no interner of its own (vipIx) beside them.
func TestVIPTablesKeyedByHandle(t *testing.T) {
	isAddr := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			return e.Name == "VIP" || e.Name == "VIPAddr" || e.Name == "string"
		case *ast.SelectorExpr:
			return e.Sel.Name == "VIP" || e.Sel.Name == "VIPAddr" || e.Sel.Name == "Addr"
		}
		return false
	}
	for _, dir := range []string{".", "../lbswitch", "../netmodel", "../dnsctl"} {
		fset, files := parseNonTest(t, dir)
		// Struct types that hold an address, and the one allowed table.
		addrStructs := make(map[string]bool)
		allowed := make(map[ast.Node]bool)
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					if isAddr(field.Type) {
						addrStructs[ts.Name.Name] = true
					}
					if dir == "../lbswitch" && ts.Name.Name == "vipTable" && len(field.Names) == 1 && field.Names[0].Name == "ix" {
						allowed[field.Type] = true
					}
				}
				return true
			})
		}
		if dir == "../lbswitch" && len(allowed) != 1 {
			t.Errorf("lbswitch: the fabric's address table vipTable.ix is missing")
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					// The table's constructor makes the allowed map.
					return dir != "../lbswitch" || n.Name.Name != "newVIPTable"
				case *ast.MapType:
					key, isIdent := n.Key.(*ast.Ident)
					if !allowed[n] && (isAddr(n.Key) || isIdent && addrStructs[key.Name]) {
						t.Errorf("%s: map keyed by a VIP address; key the table by the fabric's VIP handle",
							fset.Position(n.Pos()))
					}
				case *ast.Ident:
					if dir == "." && n.Name == "vipIx" {
						t.Errorf("%s: core keeps its own VIP interner; VIP handles come from lbswitch.Fabric",
							fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
	}
}

// TestRIPBindingsKeyedByVM is the source guard of the single RIP → VM
// binding (DESIGN.md §13): non-test core code keys no map by a RIP — an
// lbswitch.RIP or a struct of this package holding one — and declares
// no interner or RIP index (ripIx, ripVM, ripHome). A RIP's bindings
// live in the VM-indexed vmRIP and vmHome, and the RIP → VM direction
// is the tag on the RIP's switch entry.
func TestRIPBindingsKeyedByVM(t *testing.T) {
	isRIP := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "RIP"
	}
	fset, files := parseNonTest(t, ".")
	ripStructs := make(map[string]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						if isRIP(field.Type) {
							ripStructs[ts.Name.Name] = true
						}
					}
				}
			}
			return true
		})
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.MapType:
				key, isIdent := n.Key.(*ast.Ident)
				if isRIP(n.Key) || isIdent && ripStructs[key.Name] {
					t.Errorf("%s: map keyed by a RIP; key RIP bindings by VMID", fset.Position(n.Pos()))
				}
			case *ast.Ident:
				switch n.Name {
				case "ripIx", "ripVM", "ripHome", "Interner", "NewInterner":
					t.Errorf("%s: %s is a second RIP index; resolve RIPs through their switch-entry tags",
						fset.Position(n.Pos()), n.Name)
				}
			}
			return true
		})
	}
}

// TestFluidStateOnlyInLedgers is the source guard of the single record
// of applied demand (DESIGN.md §13): non-test core code declares no
// epoch-invalidated table type (epoch*), and Platform has no fluid*
// field. The fluid part of traffic, switch load and VM demand lives
// only in Propagate's per-app ledgers.
func TestFluidStateOnlyInLedgers(t *testing.T) {
	fset, files := parseNonTest(t, ".")
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if strings.HasPrefix(ts.Name.Name, "epoch") {
				t.Errorf("%s: type %s is an epoch table; read fluid values from the ledgers",
					fset.Position(ts.Pos()), ts.Name.Name)
			}
			if st, ok := ts.Type.(*ast.StructType); ok && ts.Name.Name == "Platform" {
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if strings.HasPrefix(name.Name, "fluid") {
							t.Errorf("%s: Platform.%s is a second record of applied demand; read it from the ledgers",
								fset.Position(name.Pos()), name.Name)
						}
					}
				}
			}
			return true
		})
	}
}
