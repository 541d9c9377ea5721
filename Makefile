GO ?= go

.PHONY: build test race carry-race vet lint check verify golden golden-check bench-json bench-check scale-smoke devirt-smoke fuzz-smoke compile-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The carry race gate: the tests of copy-on-write cell pages (carries
# sharing pages with live predecessors, mapped images included) and
# syncs, under the race detector three times over, so races on shared
# pages get more chances to show.
carry-race:
	$(GO) test -race -count=3 -run 'Carry|Sync|Page' ./internal/engine ./internal/image

vet:
	$(GO) vet ./...

# The CI gate: lint every example hierarchy, failing on any
# error-severity finding (the frontend's diagnostics; hierarchy rules
# are warnings and notes by design — see README "Linting a hierarchy").
lint:
	$(GO) run ./cmd/chglint -fail-on=error ./examples

# Run the machine-readable benchmark families and write their
# snapshots: BENCH_table_build.json (ns/op, allocs/op, visited slots
# per config and strategy), BENCH_edit_relookup.json (edit→requery
# round times per serving strategy, cache-survival fractions),
# BENCH_mro.json (whole-table build per resolution backend, divergent
# cell counts), BENCH_lint.json (edit→re-lint round times, full vs
# cone-scoped re-analysis), BENCH_image.json (warm start per strategy:
# mmap-load vs cold rebuild vs gob decode), BENCH_scale.json
# (20k/50k/100k-class giant hierarchies: streamed vs batched whole-table
# build with peak heap and bytes/class, plus 10k-edit sessions served
# by bulk cone carry vs serial per-edit carry), and BENCH_devirt.json
# (Zipf call-site streams drained by CHA resolution: single-call probe
# vs batched vs parallel-batched ns/site, plus the stream's
# monomorphic/polymorphic census) — the cross-PR perf trajectory
# record. The scale and devirt families each take minutes.
bench-json:
	$(GO) run ./cmd/benchjson -o BENCH_table_build.json -edit-o BENCH_edit_relookup.json -mro-o BENCH_mro.json -lint-o BENCH_lint.json -image-o BENCH_image.json -scale-o BENCH_scale.json -devirt-o BENCH_devirt.json

# The CI-sized scale gate: a 20k-class streamed build plus a 100-edit
# bulk-carry session, with the streaming invariants (chunked working
# set within budget, republish count, carried cells) asserted.
scale-smoke:
	$(GO) run ./cmd/benchjson -scale-smoke

# The CI-sized devirt gate: a 200k-site Zipf stream over a 20k-class
# hierarchy, asserting batched throughput is at least the single-call
# baseline and the monomorphic/fast-path counts are non-degenerate.
devirt-smoke:
	$(GO) run ./cmd/benchjson -devirt-smoke

# The CI-sized compile gate: a 2000-class Giant unit through the whole
# -save-image path (parse, sema, WarmAll, image write), then one lookup
# served from the mapped image — the last (class, member) declaration
# in the unit, which must come back red.
compile-smoke:
	$(GO) run ./cmd/hiergen -family giant -n 2000 -members 64 > /tmp/g.cpp
	$(GO) run ./cmd/cpplookup -save-image /tmp/g.img /tmp/g.cpp
	pair=$$(awk '/^struct /{c=$$2} /^\tvoid m[0-9]+\(\);/{m=$$2; sub(/\(\);/, "", m); p=c "::" m} END{print p}' /tmp/g.cpp); \
	out=$$($(GO) run ./cmd/cpplookup -load-image /tmp/g.img -lookup "$$pair"); \
	echo "$$out"; \
	case "$$out" in *"= $$pair "*"[red ("*) ;; *) echo "compile-smoke: $$pair did not resolve red from the image" >&2; exit 1;; esac

# The CI-sized fuzz gate: 20s of arbitrary workspace edit sequences,
# checking the edit log and every invalidation cone against the
# frozen graph's closure.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzWorkspaceEdits$$' -fuzztime 20s ./internal/incremental

# Fail if the checked-in benchmark JSON snapshots no longer match the
# current benchmark families structurally (configs/strategies renamed
# or added without re-running `make bench-json`). Timings are not
# compared.
bench-check:
	$(GO) run ./cmd/benchjson -check

# Regenerate the CLI golden transcripts in internal/cli/testdata/golden.
golden:
	$(GO) test ./internal/cli -run Goldens -update

# Fail if the checked-in goldens are stale w.r.t. the current code.
golden-check: golden
	git diff --exit-code internal/cli/testdata/golden

check: build vet test lint

# Everything CI runs: build, vet, the full test suite, the example
# lint gate, and golden/benchmark-snapshot staleness.
verify: build vet test lint golden-check bench-check
