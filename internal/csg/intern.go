package csg

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"efes/internal/relational"
)

// This file implements the interned CSG instance: the integer-ID twin of
// the string-element Instance of convert.go. Elements are dense int32 IDs
// per node (tuple indexes for table nodes, first-occurrence distinct-value
// indexes for attribute nodes, derived directly from the columnar
// substrate's dictionary codes), and every atomic relationship is stored
// as CSR adjacency (offsets + targets) instead of map[string][]string.
// LinkCounts, CountViolations, and ViolationSplit walk the CSR arrays with
// a reusable frontier bitmap, so evaluating the structure detector's
// cardinality checks allocates O(path) scratch instead of one hash set per
// start element. Strings are rendered lazily, only for samples, traces,
// and the Source-interface compatibility methods.
//
// Interning is lazy too: construction only validates the graph against
// the database and records each attribute's column vector. An attribute
// node is interned (its element table and both directions of its
// tuple→value CSR) the first time a query needs its elements or
// adjacency, and an equality relationship is linked the first time
// either direction is traversed. A single-edge tuple→value degree query
// never interns: it is answered from the column's null bitmap. The
// structure detector's path queries touch only a few attributes of a
// source, so the rest are never interned.
//
// The string-based Instance remains the semantic oracle: intern_test.go
// property-tests element, link-count, violation-split, and sample identity
// between the two representations over randomized scenarios, with the
// queries issued in random orders so every lazy path is exercised.

// elemTable is the element table of one node: a dense ID space 0..n-1.
// It is immutable once published in Interned.nodes.
type elemTable struct {
	// table is non-empty for table nodes: element i is tuple i of that
	// table, rendered lazily as "table#i".
	table string
	// elems holds the distinct values of an attribute node in first
	// occurrence order (ID = slice index). The strings alias the column
	// dictionary (or its rendering arena), so no per-element copies are
	// made.
	elems []string
	// n is the element count (== len(elems) for attribute nodes).
	n int
}

// csrAdj is one direction of an atomic relationship in compressed sparse
// row form: the links of element i are targets[offsets[i]:offsets[i+1]].
// It is immutable once published in Interned.adj.
type csrAdj struct {
	offsets []int32
	targets []int32
}

// degree returns the number of links of element i.
func (a *csrAdj) degree(i int32) int32 { return a.offsets[i+1] - a.offsets[i] }

// links returns the link targets of element i.
func (a *csrAdj) links(i int32) []int32 { return a.targets[a.offsets[i]:a.offsets[i+1]] }

// column is the source of an attribute node: its column vector and the
// table→attribute edge its tuple links populate.
type column struct {
	vec  *relational.ColumnVector
	edge *Edge
}

// Interned is a CSG instance with interned integer elements and CSR
// adjacency. It implements Source, so the complex-relationship evaluators
// accept it interchangeably with the string-based Instance. Queries are
// safe for concurrent use; the database must not be mutated while the
// instance is in use, since attributes are interned from its column
// vectors on demand.
type Interned struct {
	// Graph is the CSG this instance belongs to.
	Graph *Graph

	// cols maps every attribute node to its source column; fixed at
	// construction.
	cols map[*Node]column

	// mu guards the lazily built state below. Queries hold it only to
	// find or build an element table, adjacency, or index; the published
	// structures are immutable and are read without it.
	mu sync.Mutex
	// nodes holds every table node from construction on, and each
	// attribute node once it is interned.
	nodes map[*Node]*elemTable //efes:guardedby mu
	// adj holds both directions of each interned attribute's tuple links
	// and of each traversed equality relationship.
	adj map[*Edge]*csrAdj //efes:guardedby mu
	// index maps an attribute node's rendered elements back to their
	// IDs, built for equality links, UnequalValues, and Links lookups.
	index map[*Node]map[string]int32 //efes:guardedby mu
	// rendered memoizes the full Elements() rendering of a table node.
	rendered map[*Node][]string //efes:guardedby mu
}

// internHook, when set, observes every attribute interning. It is nil
// outside tests (see export_test.go).
var internHook func(n *Node)

// FromDatabaseInterned converts a relational instance into an interned CSG
// instance over the graph produced by FromSchema on the same schema. It is
// the integer-ID equivalent of FromDatabase: element IDs are assigned in
// the exact order FromDatabase interns element strings (tuples in row
// order, attribute values in first-occurrence row order), so lazy
// rendering reproduces the oracle's elements byte for byte.
//
// Construction validates that the graph covers every table, attribute,
// and equality relationship of the database, but interns nothing: each
// attribute is interned on first use (see the file comment).
func FromDatabaseInterned(g *Graph, db *relational.Database) (*Interned, error) {
	in := &Interned{
		Graph:    g,
		cols:     make(map[*Node]column),
		nodes:    make(map[*Node]*elemTable),
		adj:      make(map[*Edge]*csrAdj),
		index:    make(map[*Node]map[string]int32),
		rendered: make(map[*Node][]string),
	}
	for _, t := range db.Schema.Tables() {
		tn := g.Node(t.Name)
		if tn == nil {
			return nil, fmt.Errorf("csg: graph lacks table node %s", t.Name)
		}
		in.nodes[tn] = &elemTable{table: t.Name, n: db.NumRows(t.Name)}
		vecs := db.Vectors(t.Name)
		for ci, c := range t.Columns {
			id := AttributeNodeID(t.Name, c.Name)
			an := g.Node(id)
			if an == nil {
				return nil, fmt.Errorf("csg: graph lacks attribute node %s", id)
			}
			edge := g.EdgeBetween(t.Name, id)
			if edge == nil {
				return nil, fmt.Errorf("csg: graph lacks edge %s -> %s", t.Name, id)
			}
			in.cols[an] = column{vec: vecs[ci], edge: edge}
		}
	}
	for _, e := range g.Edges() {
		if e.Kind != EqualityEdge {
			continue
		}
		for _, n := range []*Node{e.From, e.To} {
			if _, isAttr := in.cols[n]; !isAttr && in.nodes[n] == nil {
				return nil, fmt.Errorf("csg: equality edge %s references missing element table", e)
			}
		}
	}
	return in, nil
}

// MustFromDatabaseInterned is FromDatabaseInterned but panics on error.
func MustFromDatabaseInterned(g *Graph, db *relational.Database) *Interned {
	in, err := FromDatabaseInterned(g, db)
	if err != nil {
		panic(err)
	}
	return in
}

// node returns the element table of n, interning an attribute node on
// first use; nil for a node outside the instance.
func (in *Interned) node(n *Node) *elemTable {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.nodeLocked(n)
}

// nodeLocked is node with in.mu held.
func (in *Interned) nodeLocked(n *Node) *elemTable {
	if et := in.nodes[n]; et != nil {
		return et
	}
	col, ok := in.cols[n]
	if !ok {
		return nil
	}
	et, fwd := buildAttribute(col.vec)
	in.nodes[n] = et
	in.adj[col.edge] = fwd
	in.adj[col.edge.Inverse] = transpose(fwd, et.n)
	if internHook != nil {
		internHook(n)
	}
	return et
}

// edge returns the adjacency of e, building it on first use: a
// table–attribute edge interns its attribute end (which builds both
// directions), and an equality edge links the equal elements of its two
// ends (again both directions). nil for an edge without links here.
func (in *Interned) edge(e *Edge) *csrAdj {
	in.mu.Lock()
	defer in.mu.Unlock()
	if a := in.adj[e]; a != nil {
		return a
	}
	from, to := in.nodeLocked(e.From), in.nodeLocked(e.To)
	if e.Kind == EqualityEdge && from != nil && to != nil {
		in.adj[e], in.adj[e.Inverse] = equalityAdj(from, to, in.indexLocked(e.To, to))
	}
	return in.adj[e]
}

// indexLocked returns (building on first use) the rendered-element → ID
// index of node n with element table et; in.mu must be held. A table
// node's index is empty: its elements are tuple identities, not values.
func (in *Interned) indexLocked(n *Node, et *elemTable) map[string]int32 {
	idx := in.index[n]
	if idx == nil {
		idx = make(map[string]int32, len(et.elems))
		for i, v := range et.elems {
			idx[v] = int32(i)
		}
		in.index[n] = idx
	}
	return idx
}

// lookup is indexLocked taking in.mu.
func (in *Interned) lookup(n *Node, et *elemTable) map[string]int32 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.indexLocked(n, et)
}

// buildAttribute interns one column: the distinct non-NULL values become
// the attribute node's elements (first-occurrence order), and the
// tuple→value links become a CSR with at most one target per row. String
// columns map dictionary codes to element IDs directly (no hashing, no
// re-rendering); other types are dictionary-encoded by their rendering
// (relational.RenderDict), whose codes already are first-occurrence
// element IDs.
//
//efes:hot
func buildAttribute(v *relational.ColumnVector) (*elemTable, *csrAdj) {
	nRows := v.Len()
	nulls := v.Nulls()
	var elems []string
	var codes []int32
	if v.Type() == relational.String {
		// The vector's own dictionary is in append order and may keep
		// dead entries: renumber the live ones by first occurrence.
		dict := v.Dict()
		code2id := make([]int32, len(dict))
		for i := range code2id {
			code2id[i] = -1
		}
		live := make([]string, 0, nRows-v.NullCount()) // distinct ≤ non-NULL rows
		ids := make([]int32, nRows)
		for i, code := range v.Codes() {
			if nulls.Get(i) {
				continue
			}
			id := code2id[code]
			if id < 0 {
				id = int32(len(live))
				code2id[code] = id
				live = append(live, dict[code])
			}
			ids[i] = id
		}
		elems, codes = live, ids
	} else {
		elems, codes, _ = relational.RenderDict(v)
	}
	fwd := &csrAdj{offsets: make([]int32, nRows+1), targets: codes}
	if v.NullCount() == 0 {
		for i := range codes {
			fwd.offsets[i+1] = int32(i + 1)
		}
	} else {
		// Compact the NULL rows out in place; codes is a private copy
		// either way.
		w := 0
		for i, id := range codes {
			if !nulls.Get(i) {
				codes[w] = id
				w++
			}
			fwd.offsets[i+1] = int32(w)
		}
		fwd.targets = codes[:w]
	}
	if len(elems) == 0 {
		elems = nil // Elements hands this slice out; the oracle renders an empty node as nil
	}
	return &elemTable{elems: elems, n: len(elems)}, fwd
}

// transpose inverts a CSR adjacency (counting sort over target IDs): the
// result's element i links to every source element that links to i. Link
// order is source order, matching the oracle's insertion order.
//
//efes:hot
func transpose(a *csrAdj, nTo int) *csrAdj {
	out := &csrAdj{offsets: make([]int32, nTo+1), targets: make([]int32, len(a.targets))}
	for _, t := range a.targets {
		out.offsets[t+1]++
	}
	for i := 0; i < nTo; i++ {
		out.offsets[i+1] += out.offsets[i]
	}
	// fill positions; next[i] tracks the write cursor of element i
	next := make([]int32, nTo)
	for from := 0; from+1 < len(a.offsets); from++ {
		for _, t := range a.targets[a.offsets[from]:a.offsets[from+1]] {
			out.targets[out.offsets[t]+next[t]] = int32(from)
			next[t]++
		}
	}
	return out
}

// equalityAdj links equal elements of two attribute nodes (at most one per
// element, since attribute elements are distinct values); toIdx is the
// element index of to.
//
//efes:hot
func equalityAdj(from, to *elemTable, toIdx map[string]int32) (*csrAdj, *csrAdj) {
	toN := to.n
	fwd := &csrAdj{offsets: make([]int32, from.n+1)}
	back := &csrAdj{offsets: make([]int32, toN+1)}
	type pair struct{ f, t int32 }
	pairs := make([]pair, 0, from.n) // at most one link per source element
	targets := make([]int32, 0, from.n)
	for f, v := range from.elems {
		if t, ok := toIdx[v]; ok {
			fwd.offsets[f+1] = 1
			targets = append(targets, t)
			pairs = append(pairs, pair{int32(f), t})
		}
	}
	fwd.targets = targets
	for i := 0; i < from.n; i++ {
		fwd.offsets[i+1] += fwd.offsets[i]
	}
	for _, p := range pairs {
		back.offsets[p.t+1] = 1
	}
	for i := 0; i < toN; i++ {
		back.offsets[i+1] += back.offsets[i]
	}
	back.targets = make([]int32, len(pairs))
	for _, p := range pairs {
		back.targets[back.offsets[p.t]] = p.f
	}
	return fwd, back
}

// render returns the string form of element id (the oracle's element).
func (et *elemTable) render(id int32) string {
	if et.table != "" {
		return tupleID(et.table, int(id))
	}
	return et.elems[id]
}

// elemID resolves a rendered element of node n (element table et) back
// to its ID, or -1. A tuple ID must be canonical, exactly as tupleID
// renders it: "t#01" and "t#+1" name no tuple.
func (in *Interned) elemID(n *Node, et *elemTable, elem string) int32 {
	if et.table != "" {
		h := strings.LastIndexByte(elem, '#')
		if h < 0 || elem[:h] != et.table {
			return -1
		}
		suffix := elem[h+1:]
		i, err := strconv.Atoi(suffix)
		if err != nil || i < 0 || i >= et.n || strconv.Itoa(i) != suffix {
			return -1
		}
		return int32(i)
	}
	id, ok := in.lookup(n, et)[elem]
	if !ok {
		return -1
	}
	return id
}

// NumElements returns the number of elements of a node.
func (in *Interned) NumElements(n *Node) int {
	et := in.node(n)
	if et == nil {
		return 0
	}
	return et.n
}

// Elements returns the elements of a node, rendered as the oracle's
// strings. Table-node renderings are memoized on first call; the hot
// paths (LinkCounts, ViolationSplit) never need them.
func (in *Interned) Elements(n *Node) []string {
	et := in.node(n)
	if et == nil {
		return nil
	}
	if et.table == "" {
		return et.elems
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := in.rendered[n]
	if out == nil && et.n > 0 {
		out = make([]string, et.n)
		for i := range out {
			out[i] = tupleID(et.table, i)
		}
		in.rendered[n] = out
	}
	return out
}

// Links returns the targets linked to elem via the atomic relationship e,
// rendered lazily (Source interface; the vectorized paths below stay in ID
// space).
func (in *Interned) Links(e *Edge, elem string) []string {
	a := in.edge(e)
	from, to := in.node(e.From), in.node(e.To)
	if a == nil || from == nil || to == nil {
		return nil
	}
	id := in.elemID(e.From, from, elem)
	if id < 0 {
		return nil
	}
	ts := a.links(id)
	if len(ts) == 0 {
		return nil
	}
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = to.render(t)
	}
	return out
}

// LinkCounts computes, for every element of the start node of path p, the
// number of distinct end-node elements reachable along p. The result is
// dense: counts[i] is the count of element i of the start node. It returns
// nil for invalid paths (the oracle's empty map).
//
//efes:hot
func (in *Interned) LinkCounts(p Path) []int32 {
	if !p.Valid() {
		return nil
	}
	start := in.node(p.Start())
	if start == nil {
		return nil
	}
	counts := make([]int32, start.n)
	if start.n == 0 {
		return counts
	}
	if len(p) == 1 {
		// Single edge: links are distinct by construction (one value per
		// row and column; equality links pair distinct values), so the
		// count is the CSR degree. A tuple→value edge needs no CSR: each
		// tuple links to exactly one value unless its cell is NULL, so
		// the column's null bitmap is the degree vector.
		if col, ok := in.cols[p[0].To]; ok && col.edge == p[0] {
			nulls := col.vec.Nulls()
			for i := range counts {
				if !nulls.Get(i) {
					counts[i] = 1
				}
			}
			return counts
		}
		a := in.edge(p[0])
		if a == nil {
			return counts
		}
		for i := range counts {
			counts[i] = a.degree(int32(i))
		}
		return counts
	}
	// Multi-edge path: per start element, expand a frontier of element
	// IDs edge by edge, deduplicating with a bitmap sized to the largest
	// node on the path. The bitmap and both frontier buffers are reused
	// across start elements; only the touched bits are cleared.
	adjs := make([]*csrAdj, len(p))
	maxN := 0
	for i, e := range p {
		adjs[i] = in.edge(e)
		if n := in.NumElements(e.To); n > maxN {
			maxN = n
		}
	}
	seen := make([]uint64, (maxN+63)/64)
	cur := make([]int32, 0, 64)
	next := make([]int32, 0, 64)
	for s := 0; s < start.n; s++ {
		cur = append(cur[:0], int32(s))
		for _, a := range adjs {
			next = next[:0]
			if a != nil {
				for _, u := range cur {
					for _, v := range a.links(u) {
						w, bit := v>>6, uint64(1)<<(uint(v)&63)
						if seen[w]&bit == 0 {
							seen[w] |= bit
							next = append(next, v)
						}
					}
				}
			}
			for _, v := range next {
				seen[v>>6] &^= uint64(1) << (uint(v) & 63)
			}
			cur, next = next, cur
		}
		counts[s] = int32(len(cur))
	}
	return counts
}

// ActualCard summarizes the link counts of a path into the tightest
// interval covering all observed counts; empty for instances without start
// elements (the oracle's Instance.ActualCard).
//
//efes:hot
func (in *Interned) ActualCard(p Path) Card {
	counts := in.LinkCounts(p)
	if len(counts) == 0 {
		return CardEmpty
	}
	lo, hi := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	return Interval(int64(lo), int64(hi))
}

// CountViolations counts the elements of the start node of p whose number
// of reachable end elements is not admitted by the prescribed cardinality.
//
//efes:hot
func (in *Interned) CountViolations(p Path, prescribed Card) int {
	violations := 0
	for _, n := range in.LinkCounts(p) {
		if !prescribed.Contains(int64(n)) {
			violations++
		}
	}
	return violations
}

// ViolationSplit counts start elements with too few (below) and too many
// (above) links along the path relative to the prescribed cardinality, and
// collects up to maxSamples offending elements per class — the
// lexicographically smallest rendered elements, exactly as the oracle's
// sorted-scan produces. Only sample candidates are rendered.
//
//efes:hot
func (in *Interned) ViolationSplit(p Path, prescribed Card, maxSamples int) (below, above int, belowSamples, aboveSamples []string) {
	counts := in.LinkCounts(p)
	if len(counts) == 0 {
		return 0, 0, nil, nil
	}
	start := in.node(p.Start())
	belowSel := newMinSampler(maxSamples)
	aboveSel := newMinSampler(maxSamples)
	for i, n := range counts {
		v := int64(n)
		switch {
		case prescribed.Contains(v):
		case prescribed.IsEmpty() || v < prescribed.Lo:
			below++
			belowSel.offer(start, int32(i))
		default:
			above++
			aboveSel.offer(start, int32(i))
		}
	}
	return below, above, belowSel.sorted(), aboveSel.sorted()
}

// minSampler keeps the k lexicographically smallest rendered elements seen.
type minSampler struct {
	k    int
	vals []string
}

func newMinSampler(k int) *minSampler { return &minSampler{k: k} }

// offer renders the element and keeps it if it is among the k smallest.
func (m *minSampler) offer(et *elemTable, id int32) {
	if m.k <= 0 {
		return
	}
	s := et.render(id)
	if len(m.vals) == m.k {
		if s >= m.vals[m.k-1] {
			return
		}
		m.vals = m.vals[:m.k-1]
	}
	i := sort.SearchStrings(m.vals, s)
	m.vals = append(m.vals, "")
	copy(m.vals[i+1:], m.vals[i:])
	m.vals[i] = s
}

// sorted returns the collected samples in ascending order.
func (m *minSampler) sorted() []string { return m.vals }

// UnequalValues counts the elements of node from without an equal element
// in node to (the structure detector's direct value-equality check for
// unconnected equality relationships).
//
//efes:hot
func (in *Interned) UnequalValues(from, to *Node) int {
	ft, tt := in.node(from), in.node(to)
	if ft == nil || tt == nil {
		return 0
	}
	idx := in.lookup(to, tt)
	count := 0
	for _, v := range ft.elems {
		if _, ok := idx[v]; !ok {
			count++
		}
	}
	if ft.table != "" {
		// Table-node elements are tuple identities; compare renderings.
		count = 0
		for i := 0; i < ft.n; i++ {
			if _, ok := idx[tupleID(ft.table, i)]; !ok {
				count++
			}
		}
	}
	return count
}
