package csg

import (
	"context"
	"sort"
)

// MaxPathLength bounds the path enumeration of the matcher. Real target
// relationships correspond to short join chains; eight hops covers every
// scenario in the paper's evaluation while keeping the search cheap.
const MaxPathLength = 8

// MaxPaths caps the number of candidate paths enumerated per relationship
// match. Densely connected graphs (e.g. after aggressive foreign key
// discovery) can hold exponentially many simple paths; the shortest — and
// thus most Occam-preferred — candidates are found first, so truncating
// the enumeration preserves the practically best match.
const MaxPaths = 4096

// maxStepsPerRound bounds the node visits of ONE iterative-deepening
// round of FindPaths. The budget is deliberately per round, not shared
// across rounds: every round re-traverses the shallow prefix of the
// search tree from scratch, so a shared budget would be exhausted by the
// (useless) shallow re-traversals on dense graphs and deeper rounds would
// silently never run — making the effective truncation depth a function
// of graph density. With a per-round budget the total work is still
// bounded (maxLen · maxStepsPerRound) and every depth gets an equal
// chance. It is a variable only so tests can exercise the truncation
// behavior cheaply.
var maxStepsPerRound = 2_000_000

// FindPaths enumerates simple paths (no repeated nodes) from one node to
// another, up to maxLen edges and at most MaxPaths candidates (an
// iterative-deepening search, so shorter paths are enumerated first). The
// result is deterministic: paths are ordered by length, then by their
// string rendering. Truncation is deterministic too: each round visits
// nodes in the graph's edge-insertion order (fixed by schema declaration
// order), so when a round's step budget or the MaxPaths cap cuts the
// enumeration short, it always keeps the same earliest-enumerated
// candidates for a given graph.
func FindPaths(g *Graph, from, to *Node, maxLen int) []Path {
	out, _ := FindPathsContext(context.Background(), g, from, to, maxLen)
	return out
}

// pathSearch is the state of one depth-limited DFS traversal.
type pathSearch struct {
	ctx       context.Context
	g         *Graph
	from, to  *Node
	limit     int
	steps     int
	cancelled bool
	current   Path
	out       []Path
}

// onPath reports whether n is on the current path: the start node or the
// head of one of its edges. A path has at most limit (in practice
// MaxPathLength) edges, so the scan is as cheap as a set lookup and
// allocates nothing.
func (s *pathSearch) onPath(n *Node) bool {
	if n == s.from {
		return true
	}
	for _, e := range s.current {
		if e.To == n {
			return true
		}
	}
	return false
}

// dfs extends the current path from n, appending simple paths of exactly
// s.limit edges ending at s.to to s.out, which also holds the paths of
// earlier rounds. Every node visit costs one step; the traversal aborts
// once the round's step budget or the MaxPaths cap over all rounds is
// exceeded, and polls the context every 1024 visits.
func (s *pathSearch) dfs(n *Node) {
	s.steps++
	if s.cancelled || len(s.out) >= MaxPaths || s.steps > maxStepsPerRound {
		return
	}
	if s.steps&1023 == 0 && s.ctx.Err() != nil {
		s.cancelled = true
		return
	}
	if len(s.current) > 0 && n == s.to {
		if len(s.current) == s.limit {
			cp := make(Path, len(s.current))
			copy(cp, s.current)
			s.out = append(s.out, cp)
		}
		return // extending past the target only yields less concise paths
	}
	if len(s.current) == s.limit {
		return
	}
	for _, e := range s.g.OutEdges(n) {
		if s.onPath(e.To) {
			continue
		}
		s.current = append(s.current, e)
		s.dfs(e.To)
		s.current = s.current[:len(s.current)-1]
	}
}

// FindPathsContext is FindPaths with cancellation: the search checks the
// context before every deepening round and every 1024 node visits, and
// returns the context's error when cancelled (dense discovered graphs can
// hold exponentially many paths, so path search is the structure
// detector's long pole under a module deadline).
//
// Each deepening round is one sequential depth-first traversal from the
// start node that keeps only the current path, so a node visit allocates
// nothing; the only allocations are one copy per path found and the
// final sort's renderings.
func FindPathsContext(ctx context.Context, g *Graph, from, to *Node, maxLen int) ([]Path, error) {
	if from == nil || to == nil || maxLen < 1 {
		return nil, nil
	}
	s := &pathSearch{ctx: ctx, g: g, from: from, to: to,
		current: make(Path, 0, min(maxLen, MaxPathLength))}
	for s.limit = 1; s.limit <= maxLen && len(s.out) < MaxPaths; s.limit++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		s.steps = 0
		s.dfs(from)
		if s.cancelled {
			return nil, ctx.Err()
		}
	}
	return sortPaths(s.out), nil
}

// sortPaths orders paths by length, then by string rendering. Each path
// is rendered once up front; the sort permutes indices with the same
// comparator (and thus the same comparison sequence) as sorting the
// paths directly, so ties keep exactly the order that sort gives them.
func sortPaths(paths []Path) []Path {
	if len(paths) < 2 {
		return paths
	}
	keys := make([]string, len(paths))
	perm := make([]int, len(paths))
	for i, p := range paths {
		keys[i], perm[i] = p.String(), i
	}
	sort.Slice(perm, func(i, j int) bool {
		a, b := perm[i], perm[j]
		if len(paths[a]) != len(paths[b]) {
			return len(paths[a]) < len(paths[b])
		}
		return keys[a] < keys[b]
	})
	sorted := make([]Path, len(paths))
	for i, k := range perm {
		sorted[i] = paths[k]
	}
	return sorted
}

// MoreConcise reports whether path a is a strictly better match than path
// b under the paper's §4.1 ordering: a relationship is more concise than
// another if its inferred cardinality is more specific (κa ⊂ κb); in the
// case of equal (or incomparable) cardinalities the shorter relationship
// is preferred, following Occam's razor.
func MoreConcise(a, b Path) bool {
	ca, cb := a.InferredCard(), b.InferredCard()
	switch {
	case ca.StrictSubsetOf(cb):
		return true
	case cb.StrictSubsetOf(ca):
		return false
	}
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a.String() < b.String() // deterministic tie break
}

// BestPath selects the most concise path among candidates, or nil.
func BestPath(paths []Path) Path {
	if len(paths) == 0 {
		return nil
	}
	best := paths[0]
	for _, p := range paths[1:] {
		if MoreConcise(p, best) {
			best = p
		}
	}
	return best
}

// NodeMatch maps target node IDs to source node IDs, derived from the
// scenario's correspondences.
type NodeMatch map[string]string

// MatchRelationship matches an atomic target relationship to its most
// concise corresponding source relationship (§4.1): the target edge's
// start and end nodes are mapped into the source graph via the
// correspondences, all simple paths between the mapped nodes are
// enumerated, and the most concise one is returned. It returns nil when
// either endpoint has no correspondence or no path exists.
func MatchRelationship(target *Edge, source *Graph, match NodeMatch) Path {
	p, _ := MatchRelationshipContext(context.Background(), target, source, match)
	return p
}

// MatchRelationshipContext is MatchRelationship with cancellation,
// propagated into the path enumeration.
func MatchRelationshipContext(ctx context.Context, target *Edge, source *Graph, match NodeMatch) (Path, error) {
	fromID, ok := match[target.From.ID]
	if !ok {
		return nil, nil
	}
	toID, ok := match[target.To.ID]
	if !ok {
		return nil, nil
	}
	from, to := source.Node(fromID), source.Node(toID)
	if from == nil || to == nil {
		return nil, nil
	}
	paths, err := FindPathsContext(ctx, source, from, to, MaxPathLength)
	if err != nil {
		return nil, err
	}
	return BestPath(paths), nil
}
