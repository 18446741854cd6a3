package pnet

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// testOracles are the functions under internal/ that no binary links but
// that a test uses as a reference or checker against production code.
// Keys are symbols as `go tool nm` prints them, less "pnet/internal/".
// Everything else under internal/ must be linked into cmd/* or the bench
// harness; TestEveryFunctionReachesABinary holds both.
var testOracles = map[string]string{
	"graph.WeightedShortestPath":     "the container/heap Dijkstra that Frozen.Dijkstra and mcf's oracle test are held to",
	"graph.nodeHeap.Len":             "WeightedShortestPath's heap.Interface",
	"graph.nodeHeap.Less":            "WeightedShortestPath's heap.Interface",
	"graph.nodeHeap.Swap":            "WeightedShortestPath's heap.Interface",
	"graph.(*nodeHeap).Push":         "WeightedShortestPath's heap.Interface",
	"graph.(*nodeHeap).Pop":          "WeightedShortestPath's heap.Interface",
	"graph.tracePath":                "rebuilds WeightedShortestPath's and the frozen tests' reference paths",
	"graph.EdgeDisjointPaths":        "counts link-disjoint host paths for TestPNetHostRedundancy, the §5.4 one-path-per-plane claim",
	"graph.augment":                  "EdgeDisjointPaths's max-flow augmentation",
	"graph.(*Graph).SetCapacity":     "test harness: uneven capacities in graph and sim tests, snapshot invalidation",
	"graph.Path.Valid":               "checks that every selector's paths are contiguous, loop-free and up",
	"graph.Path.Equal":               "checks path identity against reference searches and across runs",
	"mcf.FixedPathsExact":            "the exact simplex LP the Garg–Könemann solver is held to",
	"mcf.simplexMax":                 "FixedPathsExact's simplex",
	"mcf.pivot":                      "FixedPathsExact's simplex",
	"mcf.Pinned":                     "the exact single-path concurrent flow MaxMinPinned is held to",
	"route.PlaneSpread":              "checks that multipath sets cover the planes they should",
	"sim.(*Network).LinkUp":          "sim's fault tests and TestFaultsAcceptance: which links an outage downed",
	"sim.(*Engine).Run":              "test harness: runs an engine until its heap drains",
	"sim.(*SpanAttribution).Total":   "with tcp.(*Flow).AttributedTime, checks that span components sum to FCT",
	"tcp.(*Flow).AttributedTime":     "checks that a flow's span components sum to its FCT",
	"tcp.(*Flow).Done":               "the completion check of the tcp, dctcp, repath, span and sampler tests",
	"topo.ChassisPlane":              "checks Table 1's chassis component model against the chip-level graph",
	"topo.ceilDiv":                   "ChassisPlane's arithmetic",
	"topo.PlaneSpec.Degrees":         "checks that built planes are regular",
	"topo.(*Topology).PlaneOfSwitch": "checks that no link crosses planes",
	"traces.SizeCDF.validate":        "data check on every embedded flow-size distribution",
	"traces.SizeCDF.CDFAt":           "checks that Quantile inverts the CDF",
}

// TestEveryFunctionReachesABinary builds every command and the bench
// harness with inlining off (so a call folded into its caller still leaves its symbol), reads
// the symbol tables and fails on every function declared under internal/
// that is neither linked nor in testOracles, and on every testOracles
// entry that is linked or no longer declared, so the list only shrinks.
func TestEveryFunctionReachesABinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary")
	}
	bin := t.TempDir()
	goCmd(t, "build", "-gcflags=all=-l", "-o", bin+string(filepath.Separator), "./cmd/...")
	goCmd(t, "build", "-C", "bench", "-gcflags=all=-l", "-o", filepath.Join(bin, "bench"), ".")

	linked := map[string]bool{}
	files, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		addLinked(linked, goCmd(t, "tool", "nm", filepath.Join(bin, f.Name())))
	}
	declared := declaredFuncs(t, "internal")

	var unreached []string
	for name, pos := range declared {
		if !linked[name] && testOracles[name] == "" {
			unreached = append(unreached, pos+": "+name)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("no binary links %s: call it from one, delete it, or add it to testOracles with the test that needs it", u)
	}
	var stale []string
	for name := range testOracles {
		switch {
		case declared[name] == "":
			stale = append(stale, name+" is no longer declared")
		case linked[name]:
			stale = append(stale, name+" is linked into a binary")
		}
	}
	sort.Strings(stale)
	for _, s := range stale {
		t.Errorf("testOracles entry %s: remove it", s)
	}
}

func goCmd(t *testing.T, args ...string) []byte {
	t.Helper()
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, ee.Stderr)
		}
		t.Fatalf("go %s: %v", strings.Join(args, " "), err)
	}
	return out
}

// nmText matches a text (function) symbol line of `go tool nm`.
var nmText = regexp.MustCompile(`^\s*[0-9a-f]+ [Tt] pnet/internal/(.*)$`)

// addLinked records every function symbol under pnet/internal/ and each
// of its dotted prefixes, so a closure (F.func1) marks F. A generic
// instance is matched on its name with the type arguments cut out.
func addLinked(linked map[string]bool, nm []byte) {
	sc := bufio.NewScanner(bytes.NewReader(nm))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		m := nmText.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := cutBrackets(m[1])
		for i := range name {
			if name[i] == '.' {
				linked[name[:i]] = true
			}
		}
		linked[name] = true
	}
}

func cutBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declaredFuncs parses every non-test Go file under root and maps each
// function and method, named as nm names it less "pnet/internal/", to
// its position.
func declaredFuncs(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(path)), root+"/")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				name = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			out[name] = fset.Position(fn.Pos()).String()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// recvName is a receiver type as nm prints it: T or (*T), type
// parameters dropped.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "(*" + recvName(e.X) + ")"
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
