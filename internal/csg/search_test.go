package csg

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// denseDecoyGraph builds a graph with a dense clique of decoy nodes
// hanging off the start node plus one sparse chain of chainLen hops that
// is the only route to the target. The clique generates a huge number of
// dead-end traversals at every depth. chainFirst controls edge insertion
// order (and thus deterministic traversal order): with the chain first,
// every deepening round reaches the chain before wading into the clique;
// with the clique first, a too-small step budget truncates the search
// before the chain is ever reached.
func denseDecoyGraph(t testing.TB, cliqueSize, chainLen int, chainFirst bool) (*Graph, *Node, *Node) {
	t.Helper()
	g := NewGraph("dense")
	add := func(id string) *Node {
		n := &Node{ID: id, Kind: TableNode, Table: id}
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
		return n
	}
	connect := func(a, b *Node) {
		if _, err := g.Connect(a, b, CardOne, CardOne, AttributeEdge); err != nil {
			t.Fatal(err)
		}
	}
	start := add("start")
	chain := func() *Node {
		prev := start
		for i := 1; i < chainLen; i++ {
			n := add(fmt.Sprintf("hop%d", i))
			connect(prev, n)
			prev = n
		}
		goal := add("goal")
		connect(prev, goal)
		return goal
	}
	var goal *Node
	if chainFirst {
		goal = chain()
	}
	clique := make([]*Node, cliqueSize)
	for i := range clique {
		clique[i] = add(fmt.Sprintf("decoy%03d", i))
	}
	for _, n := range clique {
		connect(start, n)
	}
	for i := range clique {
		for j := i + 1; j < len(clique); j++ {
			connect(clique[i], clique[j])
		}
	}
	if !chainFirst {
		goal = chain()
	}
	return g, start, goal
}

// BenchmarkPathSearchDense times one full path search across a dense
// decoy clique (chain of 4 to the goal, chain first). Clique 8 is an
// exhaustive search of ~10^5 visits, clique 10 of ~10^6; both exceed any
// schema graph of the paper's scenarios by orders of magnitude.
func BenchmarkPathSearchDense(b *testing.B) {
	for _, clique := range []int{8, 10} {
		g, from, to := denseDecoyGraph(b, clique, 4, true)
		b.Run(fmt.Sprintf("clique%d", clique), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(FindPaths(g, from, to, MaxPathLength)) == 0 {
					b.Fatal("no path")
				}
			}
		})
	}
}

// TestFindPathsBudgetIsPerRound is the regression test for the shared
// iterative-deepening budget. The chain to the goal is traversed first in
// every round, but each shallow round afterwards burns thousands of steps
// re-walking the decoy clique. Under the old regime — one budget shared
// across all rounds — rounds 1-3 exhausted the budget on those useless
// clique walks, so round 4 returned immediately and the only real path
// (depth 4) was silently never found. With the per-round budget, round 4
// starts fresh and finds it within its first few steps.
func TestFindPathsBudgetIsPerRound(t *testing.T) {
	defer func(old int) { maxStepsPerRound = old }(maxStepsPerRound)
	maxStepsPerRound = 3000
	g, from, to := denseDecoyGraph(t, 40, 4, true)
	paths := FindPaths(g, from, to, 4)
	if len(paths) != 1 {
		t.Fatalf("paths = %d, want exactly the one depth-4 chain", len(paths))
	}
	if got := paths[0].String(); got != "start -> hop1 -> hop2 -> hop3 -> goal [1]" {
		t.Errorf("path = %s", got)
	}
}

// TestFindPathsTruncationIsDepthIndependent pins the truncation semantics
// the per-round budget guarantees: whether a path of depth d is found
// depends only on the work of the depth-d round itself, not on how much
// work shallower rounds burned. Here the clique comes first in traversal
// order, so a small budget truncates every round inside the clique and
// the chain behind it is (deterministically) never reached — the same
// outcome at every depth, rather than an outcome that degrades as earlier
// rounds eat a shared budget.
func TestFindPathsTruncationIsDepthIndependent(t *testing.T) {
	defer func(old int) { maxStepsPerRound = old }(maxStepsPerRound)
	maxStepsPerRound = 1000
	g, from, to := denseDecoyGraph(t, 40, 4, false)
	if paths := FindPaths(g, from, to, 4); len(paths) != 0 {
		t.Fatalf("a 1000-step round truncates inside the 40-clique, got %d paths", len(paths))
	}
	// Raising the per-round budget enough for one full depth-4 traversal
	// recovers the path — no dependence on cumulative cross-round work.
	maxStepsPerRound = 4_000_000
	if paths := FindPaths(g, from, to, 4); len(paths) != 1 {
		t.Fatalf("full budget must find the chain, got %d paths", len(paths))
	}
}

// TestFindPathsDeterministicUnderTruncation runs a truncated search twice
// and requires identical results: the traversal order is fixed by edge
// insertion order, so truncation always keeps the same candidates.
func TestFindPathsDeterministicUnderTruncation(t *testing.T) {
	defer func(old int) { maxStepsPerRound = old }(maxStepsPerRound)
	maxStepsPerRound = 500
	g, from, to := denseDecoyGraph(t, 20, 3, true)
	a := renderPaths(FindPaths(g, from, to, 6))
	b := renderPaths(FindPaths(g, from, to, 6))
	if a == "" {
		t.Fatal("truncated search found nothing at all")
	}
	if a != b {
		t.Errorf("truncated searches differ:\n%s\nvs\n%s", a, b)
	}
}

// refSearch is the reference traversal FindPathsContext must reproduce:
// one depth-limited DFS per deepening round that tracks the current path
// in a visited set, with the same step budget and path cap.
type refSearch struct {
	to      *Node
	g       *Graph
	limit   int
	max     int
	steps   int
	visited map[*Node]bool
	current Path
	out     []Path
}

func (s *refSearch) dfs(n *Node) {
	s.steps++
	if len(s.out) >= s.max || s.steps > maxStepsPerRound {
		return
	}
	if len(s.current) > 0 && n == s.to {
		if len(s.current) == s.limit {
			s.out = append(s.out, append(Path(nil), s.current...))
		}
		return
	}
	if len(s.current) == s.limit {
		return
	}
	for _, e := range s.g.OutEdges(n) {
		if s.visited[e.To] {
			continue
		}
		s.visited[e.To] = true
		s.current = append(s.current, e)
		s.dfs(e.To)
		s.current = s.current[:len(s.current)-1]
		s.visited[e.To] = false
	}
}

// refFindPaths is the reference enumeration: every round runs refSearch
// against the remainder of the MaxPaths cap, and the result is sorted by
// length, then by rendering, directly on the paths. It also returns the
// node visits of all rounds.
func refFindPaths(g *Graph, from, to *Node, maxLen int) (paths []Path, visits int) {
	for limit := 1; limit <= maxLen && len(paths) < MaxPaths; limit++ {
		s := &refSearch{to: to, g: g, limit: limit, max: MaxPaths - len(paths),
			visited: map[*Node]bool{from: true}}
		s.dfs(from)
		visits += s.steps
		paths = append(paths, s.out...)
	}
	sort.Slice(paths, func(i, j int) bool {
		if len(paths[i]) != len(paths[j]) {
			return len(paths[i]) < len(paths[j])
		}
		return paths[i].String() < paths[j].String()
	})
	return paths, visits
}

func renderPaths(paths []Path) string {
	var b strings.Builder
	for _, p := range paths {
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// randomGraph builds a seeded random multigraph over n nodes with m
// relationships, including self-loops and parallel relationships (whose
// paths render identically, so the sort's tie order is exercised).
func randomGraph(t *testing.T, seed int64, n, m int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(fmt.Sprintf("random%d", seed))
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = &Node{ID: fmt.Sprintf("n%02d", i), Kind: TableNode, Table: fmt.Sprintf("n%02d", i)}
		if err := g.AddNode(nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	cards := []Card{CardOne, CardMany, Interval(0, 1), Interval(0, Inf)}
	for i := 0; i < m; i++ {
		a, b := nodes[rng.Intn(n)], nodes[rng.Intn(n)]
		if _, err := g.Connect(a, b, cards[rng.Intn(len(cards))], cards[rng.Intn(len(cards))], AttributeEdge); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// samePaths reports whether two path lists hold the same edges in the
// same order. Parallel relationships render identically, so comparing
// renderings alone would not see the order of tied paths.
func samePaths(a, b []Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// parallelLayers builds a chain of layers+1 nodes with width parallel
// relationships between neighbours: width^layers simple paths from the
// first node to the last, all rendering identically.
func parallelLayers(t *testing.T, layers, width int) (*Graph, *Node, *Node) {
	t.Helper()
	g := NewGraph(fmt.Sprintf("layers%dx%d", layers, width))
	var first, prev *Node
	for i := 0; i <= layers; i++ {
		n := &Node{ID: fmt.Sprintf("l%d", i), Kind: TableNode, Table: fmt.Sprintf("l%d", i)}
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
		if prev == nil {
			first = n
		}
		for j := 0; prev != nil && j < width; j++ {
			if _, err := g.Connect(prev, n, CardOne, CardMany, AttributeEdge); err != nil {
				t.Fatal(err)
			}
		}
		prev = n
	}
	return g, first, prev
}

// TestFindPathsMatchesReference compares FindPaths against the reference
// enumeration, edge for edge and order included, on dense decoy graphs
// in both chain orders under an unbounded and a binding step budget, on
// parallel layers whose identically rendered paths exceed MaxPaths, on
// seeded random graphs with self-loops and parallel relationships, and on
// every node pair of the running example.
func TestFindPathsMatchesReference(t *testing.T) {
	check := func(g *Graph, from, to *Node, maxLen int) {
		t.Helper()
		ref, _ := refFindPaths(g, from, to, maxLen)
		if got := FindPaths(g, from, to, maxLen); !samePaths(got, ref) {
			t.Errorf("%s: %s -> %s (maxLen %d, budget %d) diverges from the reference:\ngot\n%s\nwant\n%s",
				g.Name, from.ID, to.ID, maxLen, maxStepsPerRound, renderPaths(got), renderPaths(ref))
		}
	}
	defer func(old int) { maxStepsPerRound = old }(maxStepsPerRound)
	for _, budget := range []int{maxStepsPerRound, 400} {
		maxStepsPerRound = budget
		for _, chainFirst := range []bool{true, false} {
			g, from, to := denseDecoyGraph(t, 9, 3, chainFirst)
			check(g, from, to, 6)
			g, from, to = denseDecoyGraph(t, 20, 3, chainFirst)
			check(g, from, to, 4)
		}
		g, from, to := parallelLayers(t, 3, 17)
		check(g, from, to, 3)
		for seed := int64(1); seed <= 12; seed++ {
			g := randomGraph(t, seed, 7, 16)
			nodes := g.Nodes()
			for _, a := range nodes {
				for _, b := range nodes {
					check(g, a, b, 4)
				}
			}
		}
	}
	maxStepsPerRound = 2_000_000
	src := MustFromSchema(figure2Source())
	nodes := src.Nodes()
	for _, a := range nodes {
		for _, b := range nodes {
			check(src, a, b, MaxPathLength)
		}
	}
}

// TestFindPathsAllocsProportionalToPaths bounds the allocations of path
// search over every node pair of the running example by the calls made
// and the paths returned: a traversal step allocates nothing, so the
// node visits of the deepening rounds must not show up in the count.
func TestFindPathsAllocsProportionalToPaths(t *testing.T) {
	src := MustFromSchema(figure2Source())
	nodes := src.Nodes()
	calls, paths, visits := 0, 0, 0
	for _, a := range nodes {
		for _, b := range nodes {
			ref, v := refFindPaths(src, a, b, MaxPathLength)
			calls, paths, visits = calls+1, paths+len(ref), visits+v
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, a := range nodes {
			for _, b := range nodes {
				FindPaths(src, a, b, MaxPathLength)
			}
		}
	})
	// Per call: the path buffer and the sort's slices. Per path: its
	// copy, the result's growth and the one rendering the sort keys on.
	limit := float64(2*calls + 12*paths)
	if allocs > limit {
		t.Errorf("FindPaths over %d pairs: %v allocs for %d paths and %d visits, want ≤ %v",
			calls, allocs, paths, visits, limit)
	}
	if float64(visits) <= limit {
		t.Fatalf("fixture too small: %d visits cannot tell per-visit from per-path allocation (bound %v)",
			visits, limit)
	}
}
