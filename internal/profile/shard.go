package profile

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"efes/internal/relational"
)

// This file holds the sharded exact kernels: the same fused statistics as
// kernels.go, computed as mergeable per-chunk partial summaries by a pool
// of workers and reduced in chunk index order. The bit-identity argument
// extends the one in kernels.go:
//
//   - Per-chunk partials hold only order-insensitive aggregates (sorted
//     value runs for the numeric kernels, integer count maps elsewhere,
//     true/false tallies, char tallies) plus the chunk's dense row-order
//     float values. Merging sums the integer counts of equal values (any
//     order — integer addition is exact) and concatenates the dense
//     vectors in chunk index order, reproducing the exact row-order
//     sequence the seed kernels build.
//   - Every float reduction (distOf, minMax, histogramOf, the two-pass
//     string-length loop) then runs sequentially over the merged data
//     with the seed's own helpers, so the float operation sequence is
//     identical by construction — at any worker count, including one.
//   - The top-k selection is order-independent (strict total order,
//     bounded heap; see kernels.go), so merging per-shard survivors and
//     reselecting yields the seed's exact set.
//
// Workers race only on disjoint per-chunk slots (one slot per chunk,
// preallocated before the fan-out), so the kernels are race-clean without
// locks; shardRun hands out chunk indexes via an atomic counter.

// chunkCount returns the number of relational.ChunkSize spans covering n
// elements.
func chunkCount(n int) int {
	return (n + relational.ChunkSize - 1) / relational.ChunkSize
}

// chunkSpan returns the half-open element range [lo, hi) of chunk k.
func chunkSpan(k, n int) (lo, hi int) {
	lo = k * relational.ChunkSize
	hi = lo + relational.ChunkSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// shardRun invokes fn(k) for every chunk index in [0, chunks), fanning
// out over up to workers goroutines. fn must write only to its own
// chunk's slot. With one worker (or one chunk) everything runs inline on
// the calling goroutine.
func shardRun(chunks, workers int, fn func(k int)) {
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for k := 0; k < chunks; k++ {
			fn(k)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(atomic.AddInt64(&next, 1)) - 1
				if k >= chunks {
					return
				}
				fn(k)
			}
		}()
	}
	wg.Wait()
}

// FromVectorSharded profiles a column from its columnar representation
// with per-chunk kernels fanned out over workers goroutines. The result
// is bit-identical to FromVector (and therefore to the row path) at any
// worker count.
func FromVectorSharded(table, column string, vec *relational.ColumnVector, workers int) *ColumnStats {
	cs := newStats(table, column, vec.Type(), vec.Len(), vec.NullCount())
	switch vec.Type() {
	case relational.String:
		stringKernelDictSharded(cs, vec.Dict(), vec.Counts(), vec.Codes(), vec.Nulls(), workers)
	case relational.Integer:
		intKernelSharded(cs, vec.Ints(), vec.Nulls(), workers)
	case relational.Float:
		floatKernelSharded(cs, vec.Floats(), vec.Nulls(), workers)
	case relational.Bool:
		boolKernelSharded(cs, vec.Bools(), vec.Nulls(), workers)
	case relational.Time:
		timeKernelSharded(cs, vec.Times(), vec.Nulls(), workers)
	}
	return cs
}

// FromVectorCoercedSharded is FromVectorCoerced with sharded kernels:
// bit-identical to it (and the row path) at any worker count.
func FromVectorCoercedSharded(table, column string, vec *relational.ColumnVector, typ relational.Type, workers int) (*ColumnStats, int) {
	src := vec.Type()
	if typ == src {
		return FromVectorSharded(table, column, vec, workers), 0
	}
	if impossibleCoercion(src, typ) {
		return Values(table, column, typ, make([]relational.Value, vec.NullCount())), vec.Len() - vec.NullCount()
	}
	switch {
	case typ == relational.String:
		return toStringSharded(table, column, vec, workers), 0
	case src == relational.String:
		return coercedFromStringSharded(table, column, vec, typ, workers)
	case src == relational.Integer: // to Float: the only other possible target
		return intToFloatSharded(table, column, vec, workers), 0
	default: // Float to Integer
		return floatToIntSharded(table, column, vec, workers)
	}
}

// concatChunks stitches per-chunk dense vectors back into one row-order
// vector (chunk index order = row order).
func concatChunks(parts [][]float64, total int) []float64 {
	xs := make([]float64, 0, total)
	for _, p := range parts {
		xs = append(xs, p...)
	}
	return xs
}

// valueRuns is one chunk's sorted run-length summary of a typed column:
// distinct values in ascending order with their in-chunk counts. Runs
// are the exact mode's mergeable per-chunk summary — merging is a
// sequential multi-way merge that sums the counts of equal heads, so no
// global hash table is ever built. Counts are order-independent, so any
// merge order yields the same totals; the finish accumulators (distinct
// count, count-multiplicity map, bounded top-k under a strict total
// order) are themselves feed-order-independent, which is what makes the
// whole pipeline bit-identical to the single-pass map kernels.
type valueRuns[K cmp.Ordered] struct {
	vals []K
	cnts []int32
}

// mergeRuns walks all chunks' sorted runs in ascending value order and
// emits each distinct value once with its summed count. A small binary
// min-heap over the chunk cursors keeps the merge O(total runs × log
// chunks) with strictly sequential memory access — the cache-friendly
// replacement for folding per-chunk hash maps into one giant map.
//
//efes:hot
func mergeRuns[K cmp.Ordered](parts []valueRuns[K], emit func(v K, n int)) {
	heap := make([]int32, 0, len(parts)) //efes:bounded one entry per chunk
	pos := make([]int32, len(parts))
	head := func(p int32) K { return parts[p].vals[pos[p]] }
	less := func(a, b int32) bool { return head(a) < head(b) }
	siftDown := func(i int32) {
		n := int32(len(heap))
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < n && less(heap[l], heap[min]) {
				min = l
			}
			if r < n && less(heap[r], heap[min]) {
				min = r
			}
			if min == i {
				return
			}
			heap[i], heap[min] = heap[min], heap[i]
			i = min
		}
	}
	for p := range parts {
		if len(parts[p].vals) > 0 {
			heap = append(heap, int32(p))
		}
	}
	for i := int32(len(heap))/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(heap) > 0 {
		v := head(heap[0])
		n := 0
		for len(heap) > 0 && head(heap[0]) == v {
			p := heap[0]
			n += int(parts[p].cnts[pos[p]])
			pos[p]++
			if int(pos[p]) == len(parts[p].vals) {
				heap[0] = heap[len(heap)-1]
				heap = heap[:len(heap)-1]
			}
			siftDown(0)
		}
		emit(v, n)
	}
}

// sortedRuns sorts a chunk's values in place and run-length encodes
// them: vals' prefix keeps one entry per distinct value, cnts holds the
// matching run lengths.
//
//efes:hot
func sortedRuns[K cmp.Ordered](vals []K) valueRuns[K] {
	slices.Sort(vals)
	cnts := make([]int32, 0, len(vals))
	w := 0
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		vals[w] = vals[i]
		cnts = append(cnts, int32(j-i))
		w++
		i = j
	}
	return valueRuns[K]{vals: vals[:w], cnts: cnts}
}

// intRuns builds one chunk's ascending runs, choosing between two
// strategies by the chunk's value range: when the range is small
// relative to the chunk length (id-like, foreign-key-like and code-like
// columns), a dense counting array replaces the sort — one sequential
// counting pass plus one emission pass instead of an O(n log n) sort.
// Both strategies produce identical runs, so the choice (made per chunk
// from the data alone, never from the worker count) cannot influence
// output.
//
//efes:hot
func intRuns(vals []int64) valueRuns[int64] {
	if len(vals) == 0 {
		return valueRuns[int64]{}
	}
	mn, mx := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	// uint64 subtraction is exact for any int64 pair under two's
	// complement, so the span test is overflow-safe.
	if span := uint64(mx) - uint64(mn); span < uint64(4*len(vals)) {
		cnt := make([]int32, span+1)
		for _, v := range vals {
			cnt[uint64(v)-uint64(mn)]++
		}
		cnts := make([]int32, 0, len(vals))
		w := 0
		for i, c := range cnt {
			if c != 0 {
				vals[w] = mn + int64(i)
				cnts = append(cnts, c)
				w++
			}
		}
		return valueRuns[int64]{vals: vals[:w], cnts: cnts}
	}
	return sortedRuns(vals)
}

// finishIntRuns feeds the merged runs into the same accumulators
// finishInts drives off the single-pass count map — bit-identical
// output with no global hash table.
//
//efes:hot
func finishIntRuns(cs *ColumnStats, runs []valueRuns[int64], nonNull int) {
	mult := make(map[int]int)
	tk := newTopK()
	distinct := 0
	var cur int64
	lazy := func() string { return strconv.FormatInt(cur, 10) }
	mergeRuns(runs, func(v int64, n int) {
		distinct++
		mult[n]++
		cur = v
		tk.consider(n, lazy)
	})
	cs.Distinct = distinct
	cs.Constancy = constancyFromMult(mult, distinct, nonNull)
	finishTopK(cs, tk, nonNull)
}

// intKernelSharded is intKernel over per-chunk partials: each chunk
// reduces its values to ascending runs (intRuns) and the run merge
// recomputes the exact statistics. With no NULLs each chunk writes its
// span of the shared dense vector in place — disjoint [lo, hi) windows,
// so the fan-out stays race-clean without the per-chunk copies.
//
//efes:hot
func intKernelSharded(cs *ColumnStats, ints []int64, nulls *relational.Bitmap, workers int) {
	nonNull := cs.Rows - cs.Nulls
	chunks := chunkCount(len(ints))
	runs := make([]valueRuns[int64], chunks)
	if cs.Nulls == 0 {
		xs := make([]float64, len(ints))
		shardRun(chunks, workers, func(k int) {
			lo, hi := chunkSpan(k, len(ints))
			for i := lo; i < hi; i++ {
				xs[i] = float64(ints[i])
			}
			vals := make([]int64, hi-lo)
			copy(vals, ints[lo:hi])
			runs[k] = intRuns(vals)
		})
		finishIntRuns(cs, runs, nonNull)
		finishNumeric(cs, xs)
		return
	}
	xss := make([][]float64, chunks)
	shardRun(chunks, workers, func(k int) {
		lo, hi := chunkSpan(k, len(ints))
		vals := make([]int64, 0, hi-lo)
		xs := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if nulls.Get(i) {
				continue
			}
			vals = append(vals, ints[i])
			xs = append(xs, float64(ints[i]))
		}
		runs[k] = intRuns(vals)
		xss[k] = xs
	})
	finishIntRuns(cs, runs, nonNull)
	finishNumeric(cs, concatChunks(xss, nonNull))
}

// floatKernelSharded is floatKernel over per-chunk partials, with the
// same sorted-run summaries as intKernelSharded (keys are canonical bit
// patterns). With no NULLs the typed vector itself is the dense
// row-order vector, exactly as in the single-pass kernel.
//
//efes:hot
func floatKernelSharded(cs *ColumnStats, floats []float64, nulls *relational.Bitmap, workers int) {
	nonNull := cs.Rows - cs.Nulls
	chunks := chunkCount(len(floats))
	runs := make([]valueRuns[uint64], chunks)
	var xss [][]float64
	if cs.Nulls > 0 {
		xss = make([][]float64, chunks)
	}
	shardRun(chunks, workers, func(k int) {
		lo, hi := chunkSpan(k, len(floats))
		keys := make([]uint64, 0, hi-lo)
		if xss == nil {
			// No NULLs: the typed vector itself serves as the dense
			// row-order vector, so only the keys are collected.
			for i := lo; i < hi; i++ {
				keys = append(keys, floatKey(floats[i]))
			}
			runs[k] = sortedRuns(keys)
			return
		}
		xs := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if nulls.Get(i) {
				continue
			}
			keys = append(keys, floatKey(floats[i]))
			xs = append(xs, floats[i])
		}
		runs[k] = sortedRuns(keys)
		xss[k] = xs
	})
	mult := make(map[int]int)
	tk := newTopK()
	distinct := 0
	var cur uint64
	lazy := func() string { return strconv.FormatFloat(math.Float64frombits(cur), 'g', -1, 64) }
	mergeRuns(runs, func(b uint64, n int) {
		distinct++
		mult[n]++
		cur = b
		tk.consider(n, lazy)
	})
	cs.Distinct = distinct
	cs.Constancy = constancyFromMult(mult, distinct, nonNull)
	finishTopK(cs, tk, nonNull)
	if xss == nil {
		finishNumeric(cs, floats)
	} else {
		finishNumeric(cs, concatChunks(xss, nonNull))
	}
}

// boolKernelSharded is boolKernel over per-chunk partials.
//
//efes:hot
func boolKernelSharded(cs *ColumnStats, bools []bool, nulls *relational.Bitmap, workers int) {
	nonNull := cs.Rows - cs.Nulls
	chunks := chunkCount(len(bools))
	trues := make([]int, chunks)
	falses := make([]int, chunks)
	xss := make([][]float64, chunks)
	shardRun(chunks, workers, func(k int) {
		lo, hi := chunkSpan(k, len(bools))
		xs := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if nulls.Get(i) {
				continue
			}
			if bools[i] {
				trues[k]++
				xs = append(xs, 1)
			} else {
				falses[k]++
				xs = append(xs, 0)
			}
		}
		xss[k] = xs
	})
	nTrue, nFalse := 0, 0
	for k := 0; k < chunks; k++ {
		nTrue += trues[k]
		nFalse += falses[k]
	}
	finishBools(cs, nTrue, nFalse, nonNull)
	finishNumeric(cs, concatChunks(xss, nonNull))
}

// timeKernelSharded is timeKernel over per-chunk partials.
//
//efes:hot
func timeKernelSharded(cs *ColumnStats, times []time.Time, nulls *relational.Bitmap, workers int) {
	nonNull := cs.Rows - cs.Nulls
	chunks := chunkCount(len(times))
	cnts := make([]map[string]int, chunks)
	shardRun(chunks, workers, func(k int) {
		lo, hi := chunkSpan(k, len(times))
		cnt := make(map[string]int)
		for i := lo; i < hi; i++ {
			if nulls.Get(i) {
				continue
			}
			cnt[times[i].Format(time.RFC3339)]++
		}
		cnts[k] = cnt
	})
	cnt := make(map[string]int)
	for _, p := range cnts {
		for s, n := range p {
			cnt[s] += n
		}
	}
	finishStringCounts(cs, cnt, nonNull)
}

// stringPartial is one dictionary shard's contribution to the fused
// string kernel. Pattern tallies live in patternCounts, indexed through
// patterns, so a repeat pattern is counted without assigning a map entry;
// ASCII characters are tallied in a flat array and the rest in charCounts.
type stringPartial struct {
	patterns      map[string]int32
	patternCounts []int
	ascii         [utf8.RuneSelf]int
	charCounts    map[rune]int
	totalChars    int
	mult          map[int]int
	distinct      int
	tk            *topK
}

// stringKernelDictSharded is stringKernelDict sharded over dictionary
// entries: each worker owns a contiguous dict range (disjoint runeLens
// writes), partial tallies merge by integer sums, and the row-order
// two-pass string-length accumulation stays sequential so its float
// sequence matches the seed exactly. Per entry the shard allocates
// nothing once warm: the pattern is rendered into a buffer reused across
// the shard and looked up by its bytes, so only a pattern's first
// occurrence allocates its key.
//
//efes:hot
func stringKernelDictSharded(cs *ColumnStats, strs []string, occ []int, codes []int32, nulls *relational.Bitmap, workers int) {
	nonNull := cs.Rows - cs.Nulls
	chunks := chunkCount(len(strs))
	runeLens := make([]float64, len(strs))
	parts := make([]stringPartial, chunks)
	shardRun(chunks, workers, func(k int) {
		lo, hi := chunkSpan(k, len(strs))
		p := &parts[k]
		p.patterns = make(map[string]int32)
		p.charCounts = make(map[rune]int)
		p.mult = make(map[int]int)
		p.tk = newTopK()
		buf := make([]byte, 0, 64)
		for c := lo; c < hi; c++ {
			n := occ[c]
			if n == 0 {
				continue // dead dictionary entry
			}
			s := strs[c]
			p.distinct++
			p.mult[n]++
			p.tk.considerString(n, s)
			buf = appendPattern(buf[:0], s)
			pi, ok := p.patterns[string(buf)]
			if !ok {
				pi = int32(len(p.patternCounts))
				//lint:ignore hotalloc the key is allocated on a pattern's first occurrence only; repeats hit the lookup above
				p.patterns[string(buf)] = pi
				p.patternCounts = append(p.patternCounts, 0) //lint:ignore hotalloc grows to the shard's distinct pattern count, amortized
			}
			p.patternCounts[pi] += n
			rl := 0
			for _, r := range s {
				if r < utf8.RuneSelf {
					p.ascii[r] += n
				} else {
					p.charCounts[r] += n
				}
				rl++
			}
			p.totalChars += n * rl
			runeLens[c] = float64(rl)
		}
	})
	patterns := make(map[string]int)
	charCounts := make(map[rune]int)
	mult := make(map[int]int)
	totalChars, distinct := 0, 0
	tk := newTopK()
	for k := range parts {
		p := &parts[k]
		distinct += p.distinct
		totalChars += p.totalChars
		for s, i := range p.patterns {
			patterns[s] += p.patternCounts[i]
		}
		for r, n := range p.ascii {
			if n > 0 {
				charCounts[rune(r)] += n
			}
		}
		for r, n := range p.charCounts {
			charCounts[r] += n
		}
		for c, n := range p.mult {
			mult[c] += n
		}
		for _, vc := range p.tk.h {
			tk.considerString(vc.Count, vc.Value)
		}
	}
	cs.Distinct = distinct
	cs.Constancy = constancyFromMult(mult, distinct, nonNull)
	cs.Patterns = sortedCounts(patterns)
	if totalChars > 0 {
		cs.CharHist = make(map[rune]float64, len(charCounts))
		for r, n := range charCounts {
			cs.CharHist[r] = float64(n) / float64(totalChars)
		}
	}
	if nonNull > 0 {
		sum := 0.0
		for i, c := range codes {
			if nulls.Get(i) {
				continue
			}
			sum += runeLens[c]
		}
		mean := sum / float64(nonNull)
		ss := 0.0
		for i, c := range codes {
			if nulls.Get(i) {
				continue
			}
			d := runeLens[c] - mean
			ss += d * d
		}
		cs.StringLength = Dist{Mean: mean, StdDev: math.Sqrt(ss / float64(nonNull))}
	}
	finishTopK(cs, tk, nonNull)
}

// coercedFromStringSharded is coercedFromString with the per-dict-entry
// parse and tally loops sharded; the dense row-order vector is built from
// per-chunk slices concatenated in chunk order.
//
//efes:hot
func coercedFromStringSharded(table, column string, vec *relational.ColumnVector, typ relational.Type, workers int) (*ColumnStats, int) {
	dict, occ, codes, nulls := vec.Dict(), vec.Counts(), vec.Codes(), vec.Nulls()
	dictChunks := chunkCount(len(dict))
	ok := make([]bool, len(dict))
	bad := make([]int, dictChunks)

	switch typ {
	case relational.Integer:
		vals := make([]int64, len(dict))
		shardRun(dictChunks, workers, func(k int) {
			lo, hi := chunkSpan(k, len(dict))
			for c := lo; c < hi; c++ {
				if occ[c] == 0 {
					continue
				}
				n, err := relational.ParseInt(dict[c])
				if err != nil {
					bad[k] += occ[c]
					continue
				}
				vals[c], ok[c] = n, true
			}
		})
		incompatible := sumInts(bad)
		cs := newStats(table, column, typ, vec.Len()-incompatible, vec.NullCount())
		nonNull := cs.Rows - cs.Nulls
		cnts := make([]map[int64]int, dictChunks)
		shardRun(dictChunks, workers, func(k int) {
			lo, hi := chunkSpan(k, len(dict))
			cnt := make(map[int64]int)
			for c := lo; c < hi; c++ {
				if occ[c] > 0 && ok[c] {
					cnt[vals[c]] += occ[c]
				}
			}
			cnts[k] = cnt
		})
		cnt := make(map[int64]int)
		for _, p := range cnts {
			for x, n := range p {
				cnt[x] += n
			}
		}
		xs := denseFromCodes(codes, nulls, ok, nonNull, workers, func(c int32) float64 { return float64(vals[c]) })
		finishInts(cs, cnt, nonNull)
		finishNumeric(cs, xs)
		return cs, incompatible
	case relational.Float:
		vals := make([]float64, len(dict))
		shardRun(dictChunks, workers, func(k int) {
			lo, hi := chunkSpan(k, len(dict))
			for c := lo; c < hi; c++ {
				if occ[c] == 0 {
					continue
				}
				f, err := relational.ParseFloat(dict[c])
				if err != nil {
					bad[k] += occ[c]
					continue
				}
				vals[c], ok[c] = f, true
			}
		})
		incompatible := sumInts(bad)
		cs := newStats(table, column, typ, vec.Len()-incompatible, vec.NullCount())
		nonNull := cs.Rows - cs.Nulls
		cnts := make([]map[uint64]int, dictChunks)
		shardRun(dictChunks, workers, func(k int) {
			lo, hi := chunkSpan(k, len(dict))
			cnt := make(map[uint64]int)
			for c := lo; c < hi; c++ {
				if occ[c] > 0 && ok[c] {
					cnt[floatKey(vals[c])] += occ[c]
				}
			}
			cnts[k] = cnt
		})
		cnt := make(map[uint64]int)
		for _, p := range cnts {
			for b, n := range p {
				cnt[b] += n
			}
		}
		xs := denseFromCodes(codes, nulls, ok, nonNull, workers, func(c int32) float64 { return vals[c] })
		finishFloats(cs, cnt, nonNull)
		finishNumeric(cs, xs)
		return cs, incompatible
	case relational.Bool:
		vals := make([]bool, len(dict))
		shardRun(dictChunks, workers, func(k int) {
			lo, hi := chunkSpan(k, len(dict))
			for c := lo; c < hi; c++ {
				if occ[c] == 0 {
					continue
				}
				b, err := relational.ParseBool(dict[c])
				if err != nil {
					bad[k] += occ[c]
					continue
				}
				vals[c], ok[c] = b, true
			}
		})
		incompatible := sumInts(bad)
		cs := newStats(table, column, typ, vec.Len()-incompatible, vec.NullCount())
		nonNull := cs.Rows - cs.Nulls
		nTrue, nFalse := 0, 0
		for c := range dict {
			if occ[c] == 0 || !ok[c] {
				continue
			}
			if vals[c] {
				nTrue += occ[c]
			} else {
				nFalse += occ[c]
			}
		}
		xs := denseFromCodes(codes, nulls, ok, nonNull, workers, func(c int32) float64 {
			if vals[c] {
				return 1
			}
			return 0
		})
		finishBools(cs, nTrue, nFalse, nonNull)
		finishNumeric(cs, xs)
		return cs, incompatible
	default: // relational.Time
		strs := make([]string, len(dict))
		shardRun(dictChunks, workers, func(k int) {
			lo, hi := chunkSpan(k, len(dict))
			for c := lo; c < hi; c++ {
				if occ[c] == 0 {
					continue
				}
				ts, err := relational.ParseTime(dict[c])
				if err != nil {
					bad[k] += occ[c]
					continue
				}
				strs[c], ok[c] = relational.FormatTime(ts), true
			}
		})
		incompatible := sumInts(bad)
		cs := newStats(table, column, typ, vec.Len()-incompatible, vec.NullCount())
		nonNull := cs.Rows - cs.Nulls
		cnts := make([]map[string]int, dictChunks)
		shardRun(dictChunks, workers, func(k int) {
			lo, hi := chunkSpan(k, len(dict))
			cnt := make(map[string]int)
			for c := lo; c < hi; c++ {
				if occ[c] > 0 && ok[c] {
					cnt[strs[c]] += occ[c]
				}
			}
			cnts[k] = cnt
		})
		cnt := make(map[string]int)
		for _, p := range cnts {
			for s, n := range p {
				cnt[s] += n
			}
		}
		finishStringCounts(cs, cnt, nonNull)
		return cs, incompatible
	}
}

// denseFromCodes builds the dense row-order float vector of a coerced
// string column (rows whose dict entry failed to parse are dropped), one
// chunk of the code vector per shard, concatenated in chunk order.
//
//efes:hot
func denseFromCodes(codes []int32, nulls *relational.Bitmap, ok []bool, nonNull, workers int, val func(int32) float64) []float64 {
	chunks := chunkCount(len(codes))
	xss := make([][]float64, chunks)
	shardRun(chunks, workers, func(k int) {
		lo, hi := chunkSpan(k, len(codes))
		xs := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if nulls.Get(i) || !ok[codes[i]] {
				continue
			}
			xs = append(xs, val(codes[i]))
		}
		xss[k] = xs
	})
	return concatChunks(xss, nonNull)
}

// sumInts totals per-shard integer tallies.
func sumInts(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// intToFloatSharded is intToFloat over per-chunk partials.
//
//efes:hot
func intToFloatSharded(table, column string, vec *relational.ColumnVector, workers int) *ColumnStats {
	ints, nulls := vec.Ints(), vec.Nulls()
	cs := newStats(table, column, relational.Float, vec.Len(), vec.NullCount())
	nonNull := cs.Rows - cs.Nulls
	chunks := chunkCount(len(ints))
	cnts := make([]map[uint64]int, chunks)
	xss := make([][]float64, chunks)
	shardRun(chunks, workers, func(k int) {
		lo, hi := chunkSpan(k, len(ints))
		cnt := make(map[uint64]int)
		xs := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if nulls.Get(i) {
				continue
			}
			f := float64(ints[i]) // may collapse >2^53 magnitudes, exactly as Coerce does
			cnt[floatKey(f)]++
			xs = append(xs, f)
		}
		cnts[k], xss[k] = cnt, xs
	})
	cnt := make(map[uint64]int)
	for _, p := range cnts {
		for b, n := range p {
			cnt[b] += n
		}
	}
	finishFloats(cs, cnt, nonNull)
	finishNumeric(cs, concatChunks(xss, nonNull))
	return cs
}

// floatToIntSharded is floatToInt over per-chunk partials.
//
//efes:hot
func floatToIntSharded(table, column string, vec *relational.ColumnVector, workers int) (*ColumnStats, int) {
	floats, nulls := vec.Floats(), vec.Nulls()
	chunks := chunkCount(len(floats))
	cnts := make([]map[int64]int, chunks)
	xss := make([][]float64, chunks)
	bad := make([]int, chunks)
	shardRun(chunks, workers, func(k int) {
		lo, hi := chunkSpan(k, len(floats))
		cnt := make(map[int64]int)
		xs := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if nulls.Get(i) {
				continue
			}
			x := floats[i]
			if x != math.Trunc(x) || math.IsInf(x, 0) {
				bad[k]++
				continue
			}
			v := int64(x)
			cnt[v]++
			xs = append(xs, float64(v))
		}
		cnts[k], xss[k] = cnt, xs
	})
	incompatible := sumInts(bad)
	cnt := make(map[int64]int)
	total := 0
	for _, p := range cnts {
		for x, n := range p {
			cnt[x] += n
		}
	}
	for _, xs := range xss {
		total += len(xs)
	}
	cs := newStats(table, column, relational.Integer, vec.Len()-incompatible, vec.NullCount())
	finishInts(cs, cnt, cs.Rows-cs.Nulls)
	finishNumeric(cs, concatChunks(xss, total))
	return cs, incompatible
}

// toStringSharded is toString with sharded kernels. An Integer column
// runs the decimal kernel straight off the typed vector; the other types
// render a dictionary sequentially (codes follow first occurrence in row
// order) whose entries are sharded like a String column's.
func toStringSharded(table, column string, vec *relational.ColumnVector, workers int) *ColumnStats {
	cs := newStats(table, column, relational.String, vec.Len(), vec.NullCount())
	if vec.Type() == relational.Integer {
		decimalKernelSharded(cs, vec.Ints(), vec.Nulls(), workers)
		return cs
	}
	dict, codes, counts := relational.RenderDict(vec)
	stringKernelDictSharded(cs, dict, counts, codes, vec.Nulls(), workers)
	detachTopK(cs)
	return cs
}

// decimalTally is one chunk's character tally for the decimal kernel:
// the occurrences of each digit and of the minus sign over the chunk's
// non-NULL rows.
type decimalTally struct {
	digits [10]int
	minus  int
}

// decimalKernelSharded profiles an Integer column as seen through the
// String type without rendering it. A canonical decimal's statistics
// follow from the integer itself, so each one matches what the string
// kernel computes over the rendering dictionary, bit for bit:
//
//   - Distinct, Constancy, TopK and TopKCoverage: rendering is injective
//     on int64, so the typed runs of intKernelSharded carry the same
//     count multiset, and finishIntRuns already ranks top-k ties by the
//     lazily rendered FormatInt strings.
//   - Patterns: a canonical decimal has pattern "9", or "-9" when
//     negative, so two sign tallies replace the pattern map.
//   - CharHist: the digits and minus signs of each chunk's distinct
//     values, weighted by their in-chunk counts — integer sums, order-free.
//   - StringLength: each row's decimal length (sign plus digits), summed
//     in row order with the string kernel's two-pass float expressions.
//
//efes:hot
func decimalKernelSharded(cs *ColumnStats, ints []int64, nulls *relational.Bitmap, workers int) {
	nonNull := cs.Rows - cs.Nulls
	chunks := chunkCount(len(ints))
	runs := make([]valueRuns[int64], chunks)
	tallies := make([]decimalTally, chunks)
	lens := make([]uint8, len(ints))
	hasNulls := cs.Nulls > 0
	shardRun(chunks, workers, func(k int) {
		lo, hi := chunkSpan(k, len(ints))
		vals := make([]int64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if hasNulls && nulls.Get(i) {
				continue
			}
			x := ints[i]
			vals = append(vals, x)
			lens[i] = decimalLen(x)
		}
		runs[k] = intRuns(vals)
		t := &tallies[k]
		for j, x := range runs[k].vals {
			n := int(runs[k].cnts[j])
			if x < 0 {
				t.minus += n
			}
			for u := decimalMagnitude(x); ; u /= 10 {
				t.digits[u%10] += n
				if u < 10 {
					break
				}
			}
		}
	})
	finishIntRuns(cs, runs, nonNull)

	var total decimalTally
	for k := range tallies {
		for d, n := range tallies[k].digits {
			total.digits[d] += n
		}
		total.minus += tallies[k].minus
	}
	cs.Patterns = decimalPatterns(total.minus, nonNull-total.minus)
	totalChars := total.minus
	for _, n := range total.digits {
		totalChars += n
	}
	if totalChars > 0 {
		cs.CharHist = make(map[rune]float64, len(total.digits)+1)
		for d, n := range total.digits {
			if n > 0 {
				cs.CharHist[rune('0'+d)] = float64(n) / float64(totalChars)
			}
		}
		if total.minus > 0 {
			cs.CharHist['-'] = float64(total.minus) / float64(totalChars)
		}
	}
	if nonNull > 0 {
		// Row-order two-pass mean/stddev over the decimal lengths: the
		// float sequence of stringKernelDict's runeLens loops.
		sum := 0.0
		for i, l := range lens {
			if hasNulls && nulls.Get(i) {
				continue
			}
			sum += float64(l)
		}
		mean := sum / float64(nonNull)
		ss := 0.0
		for i, l := range lens {
			if hasNulls && nulls.Get(i) {
				continue
			}
			d := float64(l) - mean
			ss += d * d
		}
		cs.StringLength = Dist{Mean: mean, StdDev: math.Sqrt(ss / float64(nonNull))}
	}
}

// decimalPatterns returns the pattern counts of a decimal column with
// neg negative and nonNeg non-negative rows, ordered as sortedCounts
// orders them: count descending, then pattern ascending ("-9" < "9").
func decimalPatterns(neg, nonNeg int) []ValueCount {
	out := make([]ValueCount, 0, 2)
	first, second := ValueCount{Value: "-9", Count: neg}, ValueCount{Value: "9", Count: nonNeg}
	if nonNeg > neg {
		first, second = second, first
	}
	for _, vc := range [2]ValueCount{first, second} {
		if vc.Count > 0 {
			out = append(out, vc)
		}
	}
	return out
}

// decimalMagnitude returns |x|. The negation runs in uint64, where it is
// exact for math.MinInt64 too; negating in int64 would overflow back to
// a negative value.
func decimalMagnitude(x int64) uint64 {
	if x < 0 {
		return -uint64(x)
	}
	return uint64(x)
}

// decimalLen returns the length of strconv.FormatInt(x, 10): the digits
// of |x| plus one for a minus sign.
func decimalLen(x int64) uint8 {
	n := uint8(1)
	if x < 0 {
		n = 2
	}
	for u := decimalMagnitude(x); u >= 10; u /= 10 {
		n++
	}
	return n
}
