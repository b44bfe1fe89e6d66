# Tier-1 verification: build, vet, and the full test suite under the race
# detector (the concurrency layer — profiler cache, parallel detectors,
# parallel experiment grid — must stay race-clean). The resilience suite
# (fault injection, deadlines, graceful degradation) runs a second,
# focused pass so a fault-harness regression is reported by name, and
# efeslint enforces the cross-cutting invariants (DESIGN.md §8).
.PHONY: verify build test bench bench-smoke faults lint efesd-smoke fuzz

verify:
	go build ./...
	go vet ./...
	go test -race ./...
	go test -race -run 'Fault|Resilience' ./...
	go test -race -run 'KillRestart|GracefulDrain|EvictionSmoke' ./cmd/efesd/
	go run ./cmd/efeslint ./...

# efeslint: the in-tree static analyzer (internal/lint). Exits nonzero on
# any finding; see `go run ./cmd/efeslint -list` for the rules.
lint:
	go run ./cmd/efeslint ./...

# The fault-injection and resilience suite alone, twice, to shake out
# order- and state-dependent behavior in the harness (arming/Reset).
faults:
	go test -race -count=2 -run 'Fault|Resilience' ./...

# Daemon crash-safety smoke: SIGKILL a real efesd mid-workload, restart
# over the same cache directory, assert byte-identical warm answers with
# zero recomputed profiles; plus the SIGTERM graceful drain. The child
# is the production main() re-exec'd, so the flock release, the ready
# line, and the signal handling are all the shipped code paths.
efesd-smoke:
	go test -race -run 'KillRestart|GracefulDrain|EvictionSmoke' ./cmd/efesd/

# Fuzz each target for a bounded time (FUZZTIME per target): the CSV
# ingest (relational.ReadCSV) against its reference decoder, the CSV
# writer (relational.WriteCSV) against encoding/csv's Writer, the CSG
# pair-key decoder (csg.SplitPair) against its encoder, and the effort
# config loader (effort.LoadConfig) against its writer. The committed
# seed corpora already run in every `go test`. A crasher lands in the
# package's testdata/fuzz and stays there as a regression seed once fixed.
FUZZTIME ?= 30s
fuzz:
	go test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME) ./internal/relational/
	go test -run '^$$' -fuzz '^FuzzWriteCSV$$' -fuzztime $(FUZZTIME) ./internal/relational/
	go test -run '^$$' -fuzz '^FuzzSplitPair$$' -fuzztime $(FUZZTIME) ./internal/csg/
	go test -run '^$$' -fuzz '^FuzzLoadConfig$$' -fuzztime $(FUZZTIME) ./internal/effort/

build:
	go build ./...

test:
	go test ./...

# Full benchmark run, captured as machine-readable JSON (cmd/benchjson).
# Appends to BENCH_10.json so before/after runs can live side by side:
#   make bench LABEL=after
# (BENCH_6.json holds the pre-sharding trajectory for comparison.)
LABEL ?= current
bench:
	go run ./cmd/benchjson -bench . -label $(LABEL) -append -out BENCH_10.json

# Compile-and-smoke: every benchmark runs exactly one iteration (-short
# skips the XLarge tier, whose million-tuple scenario generation alone
# takes tens of seconds). Keeps bench-only code (bench_test.go,
# LargeExampleConfig) from bitrotting without paying for a full
# measurement run; wired into CI. The second step is the perf regression
# gate: FullEstimateLarge must stay under its ceiling (the interned CSG
# instance brought it from ~800ms to <50ms on the reference machine;
# 250ms leaves headroom for slow CI hardware while still catching a
# return to the string-instance regime). The third gates the profiling
# kernels the same way: ProfileDatabaseLarge ran ~15 ms at BENCH_6 and
# must not creep back toward the row-path regime — 75 ms applies the
# same ~5x slow-hardware headroom — and the sharded variant must not
# cost more than the single-worker pass it parallelizes. The fourth gates
# the CSV ingest: IngestLarge (ReadCSV of the rendered LargeExampleConfig
# scenario straight into column vectors) ran ~25 ms on the reference
# machine, and 125 ms applies the same ~5x headroom. The fifth gates the
# structure detector: StructureLarge (lazy CSG interning plus violation
# counting) ran ~2.3 ms on the reference machine, and 12 ms applies the
# same ~5x headroom; which attributes get interned at all is pinned
# exactly by TestStructureAssessmentSkipsUnreadAttributes. The sixth gates
# the running example's structure detector, which is mostly §4.1 path
# search: Table3StructureConflicts ran ~0.3 ms on a 2-CPU Xeon, and
# 1.5 ms applies the same ~5x headroom; that a path search step
# allocates nothing is pinned exactly by
# TestFindPathsAllocsProportionalToPaths. The seventh gates the String
# view of the paper-size songs.length column (Table 6's length ->
# duration), which the decimal kernel profiles straight from the typed
# integers: ProfileIntAsStringPaper ran ~25 ms on a 2-CPU Xeon, and 125 ms
# applies the same ~5x headroom. Like the others, a ~5x gate catches
# gross regressions only: the rendering path it replaced read 92-200 ms
# on the same host, so a return to it need not fail the gate. That the
# kernel's output is the rendered path's, bit for bit, is pinned by
# TestDecimalViewEdgeCases and TestDurableProfileBytesPinned. The eighth
# and ninth gate the paper-size ingest and content hash: IngestPaper
# (ReadCSV of both PaperExampleConfig databases, column-parallel) ran
# 104-135 ms and ContentHashPaper (a cold ContentHash of all six tables)
# 60-75 ms on a 2-CPU Xeon, and 650 ms and 300 ms apply the same ~5x
# headroom. A ~5x gate catches gross regressions only: the single
# appender ingest (169-187 ms) and the encoding/csv based hash
# (118-150 ms) it replaced both pass it. That the hash bytes did not move
# is pinned exactly by TestPaperContentHashesPinned.
bench-smoke:
	go test -short -run '^$$' -bench . -benchtime 1x .
	go run ./cmd/benchjson -bench '^BenchmarkFullEstimateLarge$$' -benchtime 3x \
		-out '' -assert BenchmarkFullEstimateLarge=250ms
	go run ./cmd/benchjson -bench '^BenchmarkProfileDatabaseLarge(Sharded)?$$' -benchtime 3x \
		-out '' -assert 'BenchmarkProfileDatabaseLarge=75ms,BenchmarkProfileDatabaseLargeSharded=75ms'
	go run ./cmd/benchjson -bench '^BenchmarkIngestLarge$$' -benchtime 3x \
		-out '' -assert BenchmarkIngestLarge=125ms
	go run ./cmd/benchjson -bench '^BenchmarkStructureLarge$$' -benchtime 3x \
		-out '' -assert BenchmarkStructureLarge=12ms
	go run ./cmd/benchjson -bench '^BenchmarkTable3StructureConflicts$$' -benchtime 3x \
		-out '' -assert BenchmarkTable3StructureConflicts=1.5ms
	go run ./cmd/benchjson -bench '^BenchmarkProfileIntAsStringPaper$$' -benchtime 3x \
		-out '' -assert BenchmarkProfileIntAsStringPaper=125ms
	go run ./cmd/benchjson -bench '^BenchmarkIngestPaper$$' -benchtime 3x \
		-out '' -assert BenchmarkIngestPaper=650ms
	go run ./cmd/benchjson -bench '^BenchmarkContentHashPaper$$' -benchtime 3x \
		-out '' -assert BenchmarkContentHashPaper=300ms
