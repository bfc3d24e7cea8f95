package lbswitch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"unsafe"

	"megadc/internal/trace"
)

// pointerFree reports whether values of t hold no pointer GC must scan.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// TestAddressesArePointerFree pins the layout the paper-scale build
// depends on (DESIGN.md §13): addresses are 32-bit values, a RIP group
// entry is 16 bytes with nothing for GC to scan, and trace refs
// and events, which the recorder's ring holds by the thousand, carry no
// pointer either.
func TestAddressesArePointerFree(t *testing.T) {
	for _, v := range []any{VIP(0), RIP(0)} {
		if k := reflect.TypeOf(v).Kind(); k != reflect.Uint32 {
			t.Errorf("%T is a %v, want a uint32 IPv4 value", v, k)
		}
	}
	if n := unsafe.Sizeof(ripEntry{}); n != 16 {
		t.Errorf("ripEntry is %d bytes, want 16", n)
	}
	for _, v := range []any{ripEntry{}, conn{}, trace.Ref{}, trace.Event{}} {
		if !pointerFree(reflect.TypeOf(v)) {
			t.Errorf("%T holds a pointer", v)
		}
	}
}

// addrName matches the field names that hold an address.
var addrName = regexp.MustCompile(`(?i)(vip|rip|addr)`)

// TestNoStringAddresses is the source guard of the numeric address
// type: the non-test code of cluster and lbswitch, and trace's Ref,
// declare no string-typed address field (a string, []string or string
// map named for a VIP, RIP or address) and no map keyed by string.
// Addresses are ipv4.Addr values; a dotted quad is made only where one
// is rendered.
func TestNoStringAddresses(t *testing.T) {
	isString := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "string"
	}
	stringy := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.ArrayType:
			return isString(e.Elt)
		case *ast.MapType:
			return isString(e.Key) || isString(e.Value)
		}
		return isString(e)
	}
	for _, dir := range []string{"../cluster", ".", "../trace"} {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					if !ok || dir == "../trace" && n.Name.Name != "Ref" {
						return true
					}
					for _, field := range st.Fields.List {
						for _, fn := range field.Names {
							if stringy(field.Type) && (addrName.MatchString(fn.Name) || dir == "../trace") {
								t.Errorf("%s: %s.%s is a string-typed address; use ipv4.Addr",
									fset.Position(fn.Pos()), n.Name.Name, fn.Name)
							}
						}
					}
				case *ast.MapType:
					if dir != "../trace" && isString(n.Key) {
						t.Errorf("%s: map keyed by string; key address tables by ipv4.Addr or a dense handle",
							fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
	}
}
