package csg

import (
	"testing"

	"efes/internal/relational"
)

func TestPairElemRoundTrip(t *testing.T) {
	cases := [][2]string{
		{"a", "b"},
		{"", ""},
		{"x|y", "z"}, // separator characters inside elements
		{"12:34", "5:6|7"},
	}
	for _, c := range cases {
		p := PairElem(c[0], c[1])
		a, b, ok := SplitPair(p)
		if !ok || a != c[0] || b != c[1] {
			t.Errorf("round trip (%q,%q) -> %q -> (%q,%q,%v)", c[0], c[1], p, a, b, ok)
		}
	}
	if _, _, ok := SplitPair("garbage"); ok {
		t.Error("SplitPair(garbage) should fail")
	}
	if _, _, ok := SplitPair("99:short"); ok {
		t.Error("SplitPair with bad length should fail")
	}
}

// FuzzSplitPair checks that SplitPair never panics and accepts only
// PairElem encodings. The committed corpus (testdata/fuzz/FuzzSplitPair)
// holds the overflowing length prefix that used to index out of range
// and the non-canonical prefixes that used to be accepted.
func FuzzSplitPair(f *testing.F) {
	for _, p := range []string{PairElem("a", "b"), PairElem("", ""), PairElem("12:34", "5:6|7")} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p string) {
		a, b, ok := SplitPair(p)
		if ok && PairElem(a, b) != p {
			t.Errorf("SplitPair(%q) = (%q, %q), but PairElem gives %q", p, a, b, PairElem(a, b))
		}
	})
}

func TestAtomicRelMatchesLinkCounts(t *testing.T) {
	g, in := buildFigure2Instance(t)
	p := BestPath(FindPaths(g, g.Node("albums"), g.Node("artist_credits.artist"), MaxPathLength))
	rel := AtomicRel{P: p}
	relCounts := RelLinkCounts(in, rel)
	pathCounts := in.LinkCounts(p)
	if len(relCounts) != len(pathCounts) {
		t.Fatalf("domain sizes differ: %d vs %d", len(relCounts), len(pathCounts))
	}
	for el, n := range pathCounts {
		if relCounts[el] != n {
			t.Errorf("count[%s] = %d via Rel, %d via Path", el, relCounts[el], n)
		}
	}
	if !rel.InferredCard().Equal(p.InferredCard()) {
		t.Error("inferred cards differ")
	}
}

func TestUnionRelLinks(t *testing.T) {
	g, in := buildFigure2Instance(t)
	// Union of two relationships from albums: names and artist-list ids.
	nameEdge := g.EdgeBetween("albums", "albums.name")
	listEdge := g.EdgeBetween("albums", "albums.artist_list")
	u := UnionRel{
		A:          AtomicRel{P: Path{nameEdge}},
		B:          AtomicRel{P: Path{listEdge}},
		DomainCase: EqualDomainsDisjointCodomains,
	}
	// Both operands have κ = 1, so the union must infer exactly 2.
	if got := u.InferredCard(); !got.Equal(Exactly(2)) {
		t.Errorf("union κ = %s, want 2", got)
	}
	// And the instance delivers exactly 2 links per album.
	if v := CountRelViolations(in, u, Exactly(2)); v != 0 {
		t.Errorf("union violations = %d (counts %v)", v, RelLinkCounts(in, u))
	}
	if got := u.String(); got == "" {
		t.Error("empty rendering")
	}
	if got := len(u.Domain(in)); got != in.NumElements(g.Node("albums")) {
		t.Errorf("union domain = %d", got)
	}
}

// naryFixture builds a table with a composite two-attribute key and a
// known violation.
func naryFixture(t *testing.T, withViolation bool) (*Graph, *Instance) {
	t.Helper()
	s := relational.NewSchema("nary")
	s.MustAddTable(relational.MustTable("credits",
		relational.Column{Name: "list", Type: relational.String},
		relational.Column{Name: "pos", Type: relational.Integer},
		relational.Column{Name: "artist", Type: relational.String},
	))
	s.MustAddConstraint(relational.NotNullConstraint{Table: "credits", Column: "list"})
	s.MustAddConstraint(relational.NotNullConstraint{Table: "credits", Column: "pos"})
	db := relational.NewDatabase(s)
	db.MustInsert("credits", "a1", 1, "X")
	db.MustInsert("credits", "a1", 2, "Y")
	db.MustInsert("credits", "a2", 1, "Z")
	if withViolation {
		db.MustInsert("credits", "a1", 1, "W") // duplicates (a1, 1)
	}
	g := MustFromSchema(s)
	in, err := FromDatabase(g, db)
	if err != nil {
		t.Fatal(err)
	}
	return g, in
}

func TestCheckNaryUnique(t *testing.T) {
	g, in := naryFixture(t, false)
	v, err := CheckNaryUnique(g, in, "credits", "list", "pos")
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("violations = %d, want 0 on a clean composite key", v)
	}

	g2, in2 := naryFixture(t, true)
	v, err = CheckNaryUnique(g2, in2, "credits", "list", "pos")
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("violations = %d, want 1 (the duplicated (a1,1) pair)", v)
	}
	if _, err := CheckNaryUnique(g2, in2, "credits", "list", "missing"); err == nil {
		t.Error("unknown attribute must fail")
	}
}

func TestJoinRelCardinalitySoundness(t *testing.T) {
	// The inferred join cardinality must admit every actual link count
	// of pairs that have at least one common element (Lemma 3 concerns
	// joinable pairs; the empty-intersection pairs form the domain
	// slack that makes the lemma's lower bound 1).
	g, in := naryFixture(t, true)
	ea := g.EdgeBetween("credits.list", "credits")
	eb := g.EdgeBetween("credits.pos", "credits")
	j := JoinRel{A: AtomicRel{P: Path{ea}}, B: AtomicRel{P: Path{eb}}}
	inferred := j.InferredCard()
	for elem, n := range RelLinkCounts(in, j) {
		if n == 0 {
			continue
		}
		if !inferred.Contains(int64(n)) {
			t.Errorf("join count %d of %s outside inferred %s", n, elem, inferred)
		}
	}
	// The inverse cardinality bounds how many pairs a tuple belongs to.
	inverse := j.InverseCard()
	if inverse.IsEmpty() {
		t.Fatal("inverse card empty")
	}
}

func TestCollateralRel(t *testing.T) {
	g, in := buildFigure2Instance(t)
	// Collateral of the two FK equality relationships of songs: pairs
	// of (album value, artist_list value) relate to pairs of referenced
	// key values — the n-ary foreign key reading of §4.1.
	e1 := g.EdgeBetween("songs.album", "albums.id")
	e2 := g.EdgeBetween("songs.artist_list", "artist_lists.id")
	c := CollateralRel{A: AtomicRel{P: Path{e1}}, B: AtomicRel{P: Path{e2}}}
	// κ(ρ1 ∥ ρ2) = 0..(1·1) = 0..1.
	if got := c.InferredCard(); !got.Equal(CardOpt) {
		t.Errorf("collateral κ = %s, want 0..1", got)
	}
	violations := CountRelViolations(in, c, CardOpt)
	if violations != 0 {
		t.Errorf("collateral violations = %d (all FKs hold in the fixture)", violations)
	}
	// Every pair of valid FK values links to exactly one pair.
	counts := RelLinkCounts(in, c)
	found1 := false
	for _, n := range counts {
		if n == 1 {
			found1 = true
		}
		if n > 1 {
			t.Errorf("collateral produced %d links for one pair", n)
		}
	}
	if !found1 {
		t.Error("no linked pair found")
	}
	if got := c.String(); got == "" {
		t.Error("empty rendering")
	}
}

func TestRelViolationDetection(t *testing.T) {
	g, in := buildFigure2Instance(t)
	p := BestPath(FindPaths(g, g.Node("albums"), g.Node("artist_credits.artist"), MaxPathLength))
	rel := AtomicRel{P: p}
	// Same result as the Path-based API used by the structure detector.
	if a, b := CountRelViolations(in, rel, CardOne), in.CountViolations(p, CardOne); a != b {
		t.Errorf("violations differ: %d vs %d", a, b)
	}
}
