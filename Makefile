GO ?= go

.PHONY: all tier1 fmt vet build test race roundtrip chaos fuzz bench bench-sim bench-table serve

all: tier1

# tier1 is the repository's gating check: gofmt-clean sources, vet,
# build, full test suite under the race detector, the persistence
# round-trip gate, the
# fault-injection chaos matrix, and a short randomised fuzz pass over
# the input gates. Performance is measured separately, end to end and
# per layer, by `bash rlcbench/run.sh` (see BENCHMARK.json).
tier1: fmt vet build race roundtrip chaos fuzz

# fmt fails when any Go file is not gofmt-clean, listing the files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# roundtrip gates the table codec: tablegen → save → load → compare
# bit for bit against an in-memory build, plus the cache/codec
# persistence suites.
roundtrip:
	$(GO) test -run 'RoundTrip|Cache|Load|SaveFile' ./cmd/tablegen ./internal/table

# chaos runs the fault-injection matrix under the race detector:
# injected errors/latency/panics at every instrumented point, retry
# exhaustion, cancellation promptness and leak-freedom, cache
# corruption/degradation, divergence guards, exit-code mapping, the
# daemon's overload paths (shed, deadline, breaker, drain, evict race),
# and the checkpoint/resume drills (torn writes and bitrot at every
# byte, kill-during-rename, SIGKILL-and-resume with bit-identity,
# cancellation inside a checkpoint write).
chaos:
	$(GO) test -race -timeout 10m \
		-run 'Fault|Chaos|Cancel|Panic|Diverge|Retry|Injected|Transient|Degrad|Sign|Exit|NonFinite|Singular|IllCondition|Validation|Breaker|Shed|Admit|Deadline|Drain|Gone|Healthz|EvictWhileFilling|Torn|Bitrot|KillDuringRename|JobKeyMismatch|KillAndResume|Resume|CheckpointAudit|CheckpointSaveFailure' \
		./internal/fault ./internal/table ./internal/core ./internal/sim ./internal/linalg ./internal/cliobs ./internal/serve ./internal/ckpt ./internal/clocktree ./cmd/treesim

# fuzz gives every native fuzz target a short randomised budget on top
# of the committed seed corpora (which already run as plain test cases
# in `make test`/`make race`). go only accepts one -fuzz pattern per
# invocation, so each target gets its own run.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^FuzzLoadFile$$' -fuzz '^FuzzLoadFile$$' -fuzztime $(FUZZTIME) ./internal/table
	$(GO) test -run '^FuzzLibraryFileName$$' -fuzz '^FuzzLibraryFileName$$' -fuzztime $(FUZZTIME) ./internal/table
	$(GO) test -run '^FuzzConfigValidate$$' -fuzz '^FuzzConfigValidate$$' -fuzztime $(FUZZTIME) ./internal/table
	$(GO) test -run '^FuzzCodecV3LoadFile$$' -fuzz '^FuzzCodecV3LoadFile$$' -fuzztime $(FUZZTIME) ./internal/table
	$(GO) test -run '^FuzzGridEvalReference$$' -fuzz '^FuzzGridEvalReference$$' -fuzztime $(FUZZTIME) ./internal/spline
	$(GO) test -run '^FuzzGeometryValidate$$' -fuzz '^FuzzGeometryValidate$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^FuzzBatchBody$$' -fuzz '^FuzzBatchBody$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^FuzzExtractBody$$' -fuzz '^FuzzExtractBody$$' -fuzztime $(FUZZTIME) ./internal/serve

# bench runs the full experiment benchmark suite (slow).
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$'

# bench-sim is the MNA factor/step microbenchmark: one clock-tree
# stage transient (RC and RLC) run to the full horizon and stopped at
# the last sink crossing, plus LU factor and solve, with allocation
# counts.
bench-sim:
	$(GO) test -run '^$$' -bench 'Transient|Crossings|Factor' -benchmem ./internal/sim ./internal/linalg

# bench-table is the table-layer microbenchmark: the full post-load
# audit of a default-axes set, and one cache map-in (a GetOrBuildCtx
# hit plus Close) with checks off and at warn, with allocation counts.
bench-table:
	$(GO) test -run '^$$' -bench 'Audit|CacheOpen' -benchmem ./internal/table

# serve runs the extraction daemon on ADDR (override: make serve
# ADDR=:8650 CACHE=/var/cache/rlcx) with the content-addressed table
# cache, ready for a CTS flow's HTTP client.
ADDR ?= 127.0.0.1:8650
CACHE ?= .rlcx-cache
serve:
	$(GO) run ./cmd/rlcxd -addr $(ADDR) -cache $(CACHE)
