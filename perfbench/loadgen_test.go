package main

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestTimingFromDueTime(t *testing.T) {
	// Due at 10ms, sent at 15ms (the generator was behind), done at 20ms:
	// the request waited 5ms before it was sent, and that wait is part
	// of its latency.
	tm := timing{due: 10 * time.Millisecond, sent: 15 * time.Millisecond, done: 20 * time.Millisecond}
	if tm.latency() != 10*time.Millisecond {
		t.Errorf("latency = %v, want 10ms from due time", tm.latency())
	}
	if tm.lateness() != 5*time.Millisecond {
		t.Errorf("lateness = %v, want 5ms", tm.lateness())
	}
	if late := lateness([]timing{tm, {due: 0, sent: 0, done: time.Millisecond}}); late.sorted[1] != 5 {
		t.Errorf("lateness = %v", late.sorted)
	}
}

func TestOpenLoopChargesStallsToQueuedRequests(t *testing.T) {
	// Three requests due 1ms apart on one connection; the first stalls
	// for 30ms. The two behind it are sent late and their latency,
	// counted from the due time, includes the wait.
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	var mu sync.Mutex
	var order []int
	times, backlog := openLoop(due, 1, func(i int) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		if i == 0 {
			time.Sleep(30 * time.Millisecond)
		}
	})
	if len(order) != 3 {
		t.Fatalf("ran %v", order)
	}
	for i, tm := range times {
		if tm.due != due[i] || tm.sent < tm.due || tm.done < tm.sent {
			t.Errorf("request %d timing out of order: %+v", i, tm)
		}
	}
	for _, i := range []int{1, 2} {
		if times[i].lateness() < 25*time.Millisecond {
			t.Errorf("request %d lateness %v, want the stall", i, times[i].lateness())
		}
		if times[i].latency() < times[i].lateness() {
			t.Errorf("request %d latency %v excludes its wait %v", i, times[i].latency(), times[i].lateness())
		}
	}
	if backlog < 1 {
		t.Errorf("backlog max %d, want queued requests counted", backlog)
	}
}

func TestOpenLoopKeepsSchedule(t *testing.T) {
	due := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond}
	start := time.Now()
	times, backlog := openLoop(due, 2, func(int) {})
	if time.Since(start) < 10*time.Millisecond {
		t.Error("generator ran ahead of the schedule")
	}
	if backlog != 0 {
		t.Errorf("backlog %d on an idle system", backlog)
	}
	for i, tm := range times {
		if tm.sent < tm.due {
			t.Errorf("request %d sent before due: %+v", i, tm)
		}
	}
}

func TestFixedRateScheduleSeeded(t *testing.T) {
	a := fixedRateSchedule(rand.New(rand.NewSource(3)), 100, time.Second)
	b := fixedRateSchedule(rand.New(rand.NewSource(3)), 100, time.Second)
	c := fixedRateSchedule(rand.New(rand.NewSource(4)), 100, time.Second)
	if len(a) != 100 || len(b) != 100 {
		t.Fatalf("schedule lengths %d %d at 100/s over 1s", len(a), len(b))
	}
	same := true
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] <= a[i-1]) || a[i] < time.Duration(i)*10*time.Millisecond {
			t.Fatalf("schedule not seeded, increasing and on rate at %d", i)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
}

func TestClosedLoopFixedWork(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	n, elapsed := closedLoop(2, 30, time.Minute, func(i int) {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		time.Sleep(time.Millisecond)
	})
	if n != 30 || len(seen) != 30 || elapsed < 15*time.Millisecond {
		t.Errorf("sent %d, distinct %d, elapsed %v; want all 30 across both callers", n, len(seen), elapsed)
	}
	n, _ = closedLoop(2, 1000000, 20*time.Millisecond, func(int) { time.Sleep(time.Millisecond) })
	if n == 0 || n >= 1000000 {
		t.Errorf("time cap: sent %d", n)
	}
}

func TestMixPlanExactComposition(t *testing.T) {
	pool := []*poolEntry{
		{name: "a", slots: make([]*scenarioText, 2), cols: []columnRef{{"s", "t", "c"}}},
		{name: "b", slots: make([]*scenarioText, 3), cols: []columnRef{{"s", "t", "c"}}},
	}
	for _, e := range pool {
		for i := range e.slots {
			e.slots[i] = &scenarioText{Sources: []sourceText{{Name: "s"}}}
		}
	}
	m := mixPlan{pool: pool, tenants: 3, weights: [numRoutes]float64{0.8, 0.06, 0.1, 0.04}}
	count := func(seed int64) map[[3]int]int {
		c := map[[3]int]int{}
		for _, p := range m.plan(rand.New(rand.NewSource(seed)), 1000, map[[2]int]int{}) {
			c[[3]int{p.route, p.tenant, p.entry}]++
		}
		return c
	}
	a, b := count(1), count(2)
	total := 0
	for k, n := range a {
		if b[k] != n {
			t.Errorf("cell %v: %d requests at seed 1, %d at seed 2", k, n, b[k])
		}
		total += n
	}
	if total != 1000 || a[[3]int{routeUpload, 0, 0}] <= a[[3]int{routeUpload, 2, 1}] {
		t.Errorf("total %d, composition %v", total, a)
	}
	if got := apportion([]float64{0.5, 0.25, 0.25}, 7); got[0]+got[1]+got[2] != 7 || got[0] < 3 {
		t.Errorf("apportion = %v", got)
	}
}
