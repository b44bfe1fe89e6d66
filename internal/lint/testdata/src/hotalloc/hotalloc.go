// Package hotalloc is the golden corpus for the hotalloc analyzer:
// every per-iteration allocation kind, the provable-capacity and
// buffer-swap exemptions, loop-nest depth, and a suppression. The cold
// twin at the bottom shows the rule only fires under //efes:hot.
package hotalloc

import "fmt"

type item struct {
	k string
	v int
}

//efes:hot
func PerRowAllocs(xs []int) []string {
	var out []string
	for _, x := range xs {
		m := make(map[int]bool)          // want hotalloc: make in loop
		m[x] = true                      //
		out = append(out, fmt.Sprint(x)) // want hotalloc: append without capacity, boxing into fmt.Sprint
		p := &item{v: x}                 // want hotalloc: composite literal
		_ = p
	}
	return out
}

//efes:hot
func Preallocated(xs []int) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		out = append(out, x) // provable capacity: clean
	}
	return out
}

//efes:hot
func SwapBuffers(n int) int {
	cur := make([]int, 0, 64)
	next := make([]int, 0, 64)
	total := 0
	for i := 0; i < n; i++ {
		next = append(next, i) // alias group owns a capacity make: clean
		cur, next = next, cur[:0]
		total += len(cur)
	}
	return total
}

//efes:hot
func Closures(xs []int) []func() int {
	fns := make([]func() int, 0, len(xs))
	for _, x := range xs {
		x := x
		fns = append(fns, func() int { return x }) // want hotalloc: closure capture
	}
	return fns
}

//efes:hot
func Convert(ss []string) int {
	total := 0
	for _, s := range ss {
		b := []byte(s) // want hotalloc: string→[]byte copies
		total += len(b)
	}
	return total
}

//efes:hot
func Nested(grid [][]int) []int {
	var flat []int
	for _, row := range grid {
		for _, v := range row {
			flat = append(flat, v) // want hotalloc: depth 2
		}
	}
	return flat
}

//efes:hot
func Suppressed(xs []rune) []string {
	var out []string
	for _, x := range xs {
		//lint:ignore hotalloc grows to the (unknown) distinct count; amortized doubling, not per-row
		out = append(out, string(x))
	}
	return out
}

// ResetAfter releases its buffer after the loop: a definition textually
// after the loop cannot reach its iterations and does not defeat the
// capacity proof.
//
//efes:hot
func ResetAfter(xs []int) int {
	buf := make([]int, 0, len(xs))
	for _, x := range xs {
		buf = append(buf, x) // clean: the nil def below is post-loop
	}
	total := len(buf)
	buf = nil
	_ = buf
	return total
}

// MapKeys: a map-index read keyed by string(b), plain or comma-ok, is
// looked up without copying the bytes and passes; storing through that
// index, converting outside an index, or reading an interface-keyed map
// copies and is flagged.
//
//efes:hot
func MapKeys(m map[string]int, boxed map[any]int, rows [][]byte) int {
	total := 0
	for _, b := range rows {
		total += m[string(b)] // clean: the compiler elides the copy
		if _, ok := m[string(b)]; ok {
			total++ // clean: comma-ok read
		}
		m[string(b)] = total      // want hotalloc: the stored key is a copy
		m[string(b)] += 1         // want hotalloc: op-assign stores the key
		m[string(b)]++            // want hotalloc: so does an increment
		k := string(b)            // want hotalloc: conversion outside an index
		total += boxed[string(b)] // want hotalloc: an interface key boxes a copy
		total += len(k)
	}
	return total
}

// coldAllocs is the unannotated twin: identical allocations, no
// findings.
func coldAllocs(xs []int) []string {
	var out []string
	for _, x := range xs {
		out = append(out, fmt.Sprint(x))
	}
	return out
}

var _ = coldAllocs
