package profile

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"efes/internal/relational"
)

// unicodeCorpus mixes every class the pattern and character-histogram
// code distinguishes outside ASCII: emoji (with a skin-tone modifier and
// a ZWJ sequence), combining marks, Arabic-Indic and fullwidth digits
// (unicode.IsDigit), non-digit numerals, NBSP, NEL and other Unicode
// spaces, mixed scripts, and invalid UTF-8 — next to plain ASCII so both
// the table lookup and the fallback run in one column.
var unicodeCorpus = []string{
	"😀", "👍🏽 ok", "👩‍💻x2", "été", "́", "٣٤٥", "١٢:٣٠", "１２３ｱｲ",
	"Ⅻ²", "a b", " ", "x y　z", "\u0085", "   ",
	"Straße Москва 東京 123", "مرحبا ٩", "שלום-1", "\xff\xfe", "a\xc3", "abc", "4:43",
	"\t \n", "", "ABC def", "(555) 123",
}

// referencePattern is the string-builder implementation Pattern had
// before the shared byte-appending kernel; the oracle for appendPattern.
func referencePattern(s string) string {
	var b strings.Builder
	var last rune
	for _, r := range s {
		var c rune
		switch {
		case unicode.IsDigit(r):
			c = '9'
		case unicode.IsLetter(r):
			c = 'a'
		case unicode.IsSpace(r):
			c = ' '
		default:
			c = r
		}
		if (c == '9' || c == 'a' || c == ' ') && c == last {
			continue
		}
		b.WriteRune(c)
		last = c
	}
	return b.String()
}

// unicodeRunes samples non-ASCII classes: an Arabic-Indic digit, a
// letter, NBSP, a combining grave, an emoji, a titlecase letter, an em
// space, a letter-like numeral, and the replacement character.
var unicodeRunes = []rune{'\u0660', 'ß', '\u00a0', '\u0300', '😀', 'ǅ', '\u2003', 'ⅷ', '\ufffd'}

// randomUnicodeString concatenates corpus fragments and single runes
// from every ASCII byte and a sample of non-ASCII classes.
func randomUnicodeString(r *rand.Rand) string {
	var b strings.Builder
	for n := r.Intn(6); n > 0; n-- {
		switch r.Intn(3) {
		case 0:
			b.WriteString(unicodeCorpus[r.Intn(len(unicodeCorpus))])
		case 1:
			b.WriteByte(byte(r.Intn(128)))
		default:
			b.WriteRune(unicodeRunes[r.Intn(len(unicodeRunes))])
		}
	}
	return b.String()
}

func TestAppendPatternMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	inputs := append([]string(nil), unicodeCorpus...)
	for i := 0; i < 2000; i++ {
		inputs = append(inputs, randomUnicodeString(r))
	}
	for b := 0; b < 256; b++ {
		inputs = append(inputs, string([]byte{byte(b)}), "x"+string(rune(b))+"x")
	}
	buf := []byte("stale prefix")
	for _, s := range inputs {
		want := referencePattern(s)
		if got := Pattern(s); got != want {
			t.Fatalf("Pattern(%q) = %q, want %q", s, got, want)
		}
		if buf = appendPattern(buf[:0], s); string(buf) != want {
			t.Fatalf("appendPattern(reused, %q) = %q, want %q", s, buf, want)
		}
	}
}

// TestShardedStringKernelUnicodeBitIdentical: over a non-ASCII column,
// the sharded string kernel (ASCII tally array plus rune map, reused
// pattern buffer) matches the row path bit for bit — patterns, character
// histogram, string lengths and top-k — at every worker count.
func TestShardedStringKernelUnicodeBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	s := relational.NewSchema("unicode")
	s.MustAddTable(relational.MustTable("t", relational.Column{Name: "c", Type: relational.String}))
	db := relational.NewDatabase(s)
	for i := 0; i < 600; i++ {
		var v relational.Value
		switch r.Intn(5) {
		case 0:
			// NULL
		case 1:
			v = unicodeCorpus[r.Intn(len(unicodeCorpus))]
		default:
			v = randomUnicodeString(r)
		}
		db.MustInsert("t", v)
	}
	values := db.MustColumn("t", "c")
	vec := db.Vector("t", "c")
	want := Values("t", "c", relational.String, values)
	for _, workers := range shardWorkerCounts {
		statsEqual(t, "unicode/w"+strconv.Itoa(workers), want, FromVectorSharded("t", "c", vec, workers))
	}
	statsEqual(t, "unicode/single-pass", want, FromVector("t", "c", vec))
}

// TestStringKernelAllocsFlatInDictSize is the allocation regression of
// the sharded string kernel: with a fixed set of patterns, profiling a
// 50k-entry dictionary allocates no more than a 1k-entry one, since
// patterns are looked up by the bytes of a reused buffer and characters
// are tallied in a flat array. A per-entry allocation would add ~49k.
func TestStringKernelAllocsFlatInDictSize(t *testing.T) {
	allocs := func(n int) float64 {
		strs := make([]string, n)
		occ := make([]int, n)
		codes := make([]int32, n)
		for i := range strs {
			strs[i] = "id-" + strconv.Itoa(i) + " " + [3]string{"x", "y:z", "w.v"}[i%3]
			occ[i] = 1 + i%4
			codes[i] = int32(i)
		}
		nulls := &relational.Bitmap{}
		return testing.AllocsPerRun(3, func() {
			cs := newStats("t", "c", relational.String, n, 0)
			stringKernelDictSharded(cs, strs, occ, codes, nulls, 1)
		})
	}
	small, large := allocs(1000), allocs(50000)
	t.Logf("allocs/run: %v at 1k entries, %v at 50k", small, large)
	if large > small+4 {
		t.Errorf("stringKernelDictSharded: %v allocs at 1k entries, %v at 50k; want no growth with dictionary size", small, large)
	}
}
