package csg

import "sync"

// InternCounter counts attribute internings per attribute node ID across
// every Interned instance, while installed (see CountInterns).
type InternCounter struct {
	mu sync.Mutex
	n  map[string]int //efes:guardedby mu
}

// CountInterns installs a process-wide InternCounter and returns it with
// the function that uninstalls it. Tests using it must not run in
// parallel with other interning tests.
func CountInterns() (*InternCounter, func()) {
	c := &InternCounter{n: make(map[string]int)}
	internHook = func(n *Node) {
		c.mu.Lock()
		c.n[n.ID]++
		c.mu.Unlock()
	}
	return c, func() { internHook = nil }
}

// Count returns how often the attribute node id was interned.
func (c *InternCounter) Count(id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[id]
}

// Total returns the number of internings of any attribute.
func (c *InternCounter) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, n := range c.n {
		total += n
	}
	return total
}
