package lint

import "testing"

// TestMapIndexReadKeyDoesNotAllocate grounds hotalloc's one exemption
// from the string↔[]byte rule: a map-index read keyed by string(b),
// plain or comma-ok, is looked up without copying the bytes. The stored
// form, m[string(b)] = v, copies and stays flagged (see the corpus), as
// does a read of an interface-keyed map, whose key is boxed.
func TestMapIndexReadKeyDoesNotAllocate(t *testing.T) {
	m := map[string]int{"a pattern longer than the 32-byte stack buffer": 1, "9:9": 2}
	keys := [][]byte{[]byte("a pattern longer than the 32-byte stack buffer"), []byte("9:9"), []byte("absent")}
	total := 0
	read := testing.AllocsPerRun(100, func() {
		for _, b := range keys {
			total += m[string(b)]
		}
	})
	commaOK := testing.AllocsPerRun(100, func() {
		for _, b := range keys {
			if n, ok := m[string(b)]; ok {
				total += n
			}
		}
	})
	if read != 0 || commaOK != 0 {
		t.Errorf("m[string(b)] reads allocate: %v allocs/run plain, %v comma-ok; want 0", read, commaOK)
	}
	boxed := map[any]int{"9:9": 2}
	boxedRead := testing.AllocsPerRun(100, func() {
		for _, b := range keys {
			total += boxed[string(b)]
		}
	})
	if boxedRead == 0 {
		t.Error("m[string(b)] on a map[any]int does not allocate; hotalloc's exemption must then cover it")
	}
	if total == 0 {
		t.Fatal("lookups found nothing")
	}
}
