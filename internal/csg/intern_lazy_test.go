package csg

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// internQuery is one query against an interned instance, with the
// oracle's answer it must reproduce, rendered for comparison.
type internQuery struct {
	name string
	want string
	run  func(in *Interned) string
}

// randomInternQueries draws a mix of every query kind over the graph of
// a randomized intern database, answered up front by the string oracle.
// Paths are drawn between random node pairs, so many cross the equality
// relationship, and the single-edge tuple→value paths hit the null
// bitmap degree query both before and after their attribute is interned.
func randomInternQueries(r *rand.Rand, g *Graph, oracle *Instance, n int) []internQuery {
	sampleCards := []Card{CardOne, CardOpt, CardMany, CardAny, CardEmpty, Exactly(0), Interval(2, 3)}
	nodes, edges := g.Nodes(), g.Edges()
	var attrs []*Node
	for _, nd := range nodes {
		if nd.Kind == AttributeNode {
			attrs = append(attrs, nd)
		}
	}
	var qs []internQuery
	for len(qs) < n {
		switch r.Intn(6) {
		case 0:
			nd := nodes[r.Intn(len(nodes))]
			qs = append(qs, internQuery{"NumElements " + nd.ID, fmt.Sprint(oracle.NumElements(nd)),
				func(in *Interned) string { return fmt.Sprint(in.NumElements(nd)) }})
		case 1:
			nd := nodes[r.Intn(len(nodes))]
			qs = append(qs, internQuery{"Elements " + nd.ID, fmt.Sprintf("%q", oracle.Elements(nd)),
				func(in *Interned) string { return fmt.Sprintf("%q", in.Elements(nd)) }})
		case 2:
			e := edges[r.Intn(len(edges))]
			elems := oracle.Elements(e.From)
			elem := "no such element"
			if len(elems) > 0 && r.Intn(4) > 0 {
				elem = elems[r.Intn(len(elems))]
			}
			qs = append(qs, internQuery{fmt.Sprintf("Links %s %q", e, elem), fmt.Sprintf("%q", oracle.Links(e, elem)),
				func(in *Interned) string { return fmt.Sprintf("%q", in.Links(e, elem)) }})
		case 3, 4:
			from, to := nodes[r.Intn(len(nodes))], nodes[r.Intn(len(nodes))]
			if from == to {
				continue
			}
			paths := FindPaths(g, from, to, 4)
			if len(paths) == 0 {
				continue
			}
			p := paths[r.Intn(len(paths))]
			if r.Intn(2) == 0 {
				oc := oracle.LinkCounts(p)
				want := make([]int32, 0, len(oc))
				for _, elem := range oracle.Elements(p.Start()) {
					want = append(want, int32(oc[elem]))
				}
				qs = append(qs, internQuery{"LinkCounts " + p.String(), fmt.Sprint(want),
					func(in *Interned) string { return fmt.Sprint(in.LinkCounts(p)) }})
				continue
			}
			card := sampleCards[r.Intn(len(sampleCards))]
			b, a, bs, as := oracleViolationSplit(oracle, p, card, 3)
			qs = append(qs, internQuery{"ViolationSplit " + p.String() + " " + card.String(), fmt.Sprintf("%d %d %q %q", b, a, bs, as),
				func(in *Interned) string {
					b, a, bs, as := in.ViolationSplit(p, card, 3)
					return fmt.Sprintf("%d %d %q %q", b, a, bs, as)
				}})
		case 5:
			from, to := attrs[r.Intn(len(attrs))], attrs[r.Intn(len(attrs))]
			set := make(map[string]bool)
			for _, v := range oracle.Elements(to) {
				set[v] = true
			}
			want := 0
			for _, v := range oracle.Elements(from) {
				if !set[v] {
					want++
				}
			}
			qs = append(qs, internQuery{"UnequalValues " + from.ID + " " + to.ID, fmt.Sprint(want),
				func(in *Interned) string { return fmt.Sprint(in.UnequalValues(from, to)) }})
		}
	}
	return qs
}

// TestInternedLazyQueryOrder: whatever order queries arrive in — before
// or after an attribute is interned, before or after the first traversal
// of the equality relationship — every answer matches the oracle. Each
// round asks the same queries of a fresh instance twice: once in a
// random order, once in reverse.
func TestInternedLazyQueryOrder(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for round := 0; round < 40; round++ {
		db := randomInternDatabase(r)
		g := MustFromSchema(db.Schema)
		oracle := mustFromDatabase(t, g, db)
		qs := randomInternQueries(r, g, oracle, 30)
		r.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		for pass := 0; pass < 2; pass++ {
			in := MustFromDatabaseInterned(g, db)
			for i := range qs {
				q := qs[i]
				if pass == 1 {
					q = qs[len(qs)-1-i]
				}
				if got := q.run(in); got != q.want {
					t.Fatalf("round %d pass %d: %s = %s, want %s", round, pass, q.name, got, q.want)
				}
			}
		}
	}
}

// TestInternedConcurrentQueries runs randomized queries from several
// goroutines against one shared instance, so the lazy interning, the
// equality linking, and the memoized indexes and renderings race unless
// they are properly guarded (run under -race).
func TestInternedConcurrentQueries(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for round := 0; round < 8; round++ {
		db := randomInternDatabase(r)
		g := MustFromSchema(db.Schema)
		oracle := mustFromDatabase(t, g, db)
		qs := randomInternQueries(r, g, oracle, 40)
		in := MustFromDatabaseInterned(g, db)
		const workers = 4
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			order := rand.New(rand.NewSource(int64(round*workers + w))).Perm(len(qs))
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, i := range order {
					if got := qs[i].run(in); got != qs[i].want {
						errs[w] = fmt.Errorf("round %d worker %d: %s = %s, want %s", round, w, qs[i].name, got, qs[i].want)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
