package plan

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"strings"
	"testing"

	"lambdadb/internal/storage"
	"lambdadb/internal/types"
)

// oneOfEachNode returns one instance of every concrete Node type, each with
// distinct leaf children so a mapper that swaps or skips a field is caught.
func oneOfEachNode(t *testing.T) []Node {
	s := testStore(t)
	tbl, err := s.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex(storage.IndexDef{Name: "t_a", Table: "t", Column: "a", Kind: storage.HashIndex}); err != nil {
		t.Fatal(err)
	}
	leaf := func() Node { return &Values{Sch: types.Schema{{Name: "x", Type: types.Int64}}} }
	five := types.NewInt(5)
	return []Node{
		NewScan(tbl, "", 1),
		&IndexScan{Rel: tbl, Alias: "t", Index: "t_a", Column: "a", Kind: "HASH", Eq: &five},
		&WorkingScan{Name: "iterate"},
		leaf(),
		&Filter{Child: leaf()},
		&Project{Child: leaf()},
		&Alias{Child: leaf(), Name: "a"},
		&Shared{Child: leaf()},
		&Join{L: leaf(), R: leaf()},
		&Aggregate{Child: leaf()},
		&Sort{Child: leaf()},
		&Limit{Child: leaf()},
		&Distinct{Child: leaf()},
		&Union{L: leaf(), R: leaf()},
		&RecursiveCTE{Init: leaf(), Rec: leaf()},
		&Iterate{Init: leaf(), Step: leaf(), Stop: leaf()},
		&KMeans{Data: leaf(), Centers: leaf()},
		&KMeansAssign{Data: leaf(), Centers: leaf()},
		&PageRank{Edges: leaf()},
		&NaiveBayesTrain{Data: leaf()},
		&NaiveBayesPredict{Model: leaf(), Data: leaf()},
	}
}

// nodeTypeNames parses the package's non-test sources for every type with a
// Children method — the set of concrete Node types.
func nodeTypeNames(t *testing.T) map[string]bool {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, f := range pkgs["plan"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "Children" {
				continue
			}
			if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
				names[star.X.(*ast.Ident).Name] = true
			}
		}
	}
	return names
}

// TestChildMapperCoversEveryNode is the guard against the next node type
// being forgotten by a plan walk: for one instance of every concrete Node
// type, mapChildren must visit exactly Children() in order and write each
// replacement back to the same position.
func TestChildMapperCoversEveryNode(t *testing.T) {
	nodes := oneOfEachNode(t)
	want := nodeTypeNames(t)
	for _, n := range nodes {
		name := reflect.TypeOf(n).Elem().Name()
		if !want[name] {
			t.Errorf("%s is not a Node type of this package", name)
		}
		delete(want, name)

		before := n.Children()
		var visited []Node
		mapChildren(n, func(c Node) Node {
			visited = append(visited, c)
			return &Alias{Child: c, Name: "mapped"}
		})
		if len(visited) != len(before) {
			t.Fatalf("%s: mapChildren visited %d children, Children() has %d", name, len(visited), len(before))
		}
		for i, c := range n.Children() {
			if visited[i] != before[i] {
				t.Errorf("%s: mapChildren visit %d is not Children()[%d]", name, i, i)
			}
			a, ok := c.(*Alias)
			if !ok || a.Child != before[i] {
				t.Errorf("%s: replacement %d was not written back to Children()[%d]", name, i, i)
			}
		}
	}
	for name := range want {
		t.Errorf("node type %s has no instance in oneOfEachNode: add one, and a case to mapChildren", name)
	}
}
