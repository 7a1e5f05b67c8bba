# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test race race-short bench bench-e2e loadgen-slo loadgen-smoke iwtop-smoke proxy-smoke evict-smoke figures fig4 fig5 fig6 fig7 examples cluster-demo cover doccheck linkcheck clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# CI variant: skips the soak/chaos long-variants (testing.Short()).
race-short:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The repository's yardstick (BENCHMARK.json, benchmark/README.md):
# five end-to-end workloads against in-process servers and proxies.
# benchmark/ is a nested module the root build never compiles, so this
# (and CI's `cd benchmark && go vet ./... && go test ./...`) is also
# what catches an internal API move that breaks it.
bench-e2e:
	bash benchmark/run.sh

# Session-scale SLO runs (CAPACITY.md, EXPERIMENTS.md "Loadgen"):
# the headline 100k-session measurement, and the CI-sized smoke.
# Both exit non-zero when the session count was not held.
loadgen-slo:
	$(GO) run ./tools/loadgen -sessions 100000 -conns 64 -rate 5000 \
		-duration 15s -writers 4 -segments 32 \
		-json loadgen-slo.json

loadgen-smoke:
	$(GO) run ./tools/loadgen -sessions 1000 -conns 8 -rate 500 \
		-duration 5s -subscribe 0.2 -slo-gate -json loadgen-smoke.json

# Fleet observability smoke (also run in CI): boots a real three-node
# iwserver topology with gossip-advertised metrics listeners, then
# aggregates it with `iwtop -json -once -expect 3` — one seed address
# must discover all three nodes, scrape them, and find them healthy.
# Retries while the fleet's membership gossip converges. Writes the
# snapshot to iwtop-smoke.json.
iwtop-smoke:
	@set -e; \
	$(GO) build -o iwserver-smoke ./cmd/iwserver; \
	trap 'kill $$S1 $$S2 $$S3 2>/dev/null; rm -f iwserver-smoke' EXIT; \
	./iwserver-smoke -quiet -addr 127.0.0.1:7781 -cluster-self 127.0.0.1:7781 \
		-cluster-peers 127.0.0.1:7782,127.0.0.1:7783 -metrics-addr 127.0.0.1:9981 & S1=$$!; \
	./iwserver-smoke -quiet -addr 127.0.0.1:7782 -cluster-self 127.0.0.1:7782 \
		-cluster-peers 127.0.0.1:7781,127.0.0.1:7783 -metrics-addr 127.0.0.1:9982 & S2=$$!; \
	./iwserver-smoke -quiet -addr 127.0.0.1:7783 -cluster-self 127.0.0.1:7783 \
		-cluster-peers 127.0.0.1:7781,127.0.0.1:7782 -metrics-addr 127.0.0.1:9983 & S3=$$!; \
	ok=; for i in $$(seq 1 40); do \
		if $(GO) run ./tools/iwtop -seed 127.0.0.1:7781 -json -once -expect 3 \
			> iwtop-smoke.json 2> iwtop-smoke.err; then ok=1; break; fi; \
		sleep 0.5; \
	done; \
	if [ -z "$$ok" ]; then echo "iwtop-smoke: fleet never became healthy" >&2; \
		cat iwtop-smoke.err >&2; cat iwtop-smoke.json >&2; exit 1; fi; \
	rm -f iwtop-smoke.err; echo "iwtop-smoke: 3 nodes discovered and healthy (iwtop-smoke.json)"

# Proxy-tier smoke (also run in CI; DESIGN.md §11, CAPACITY.md):
# boots an origin plus a two-level proxy tree (p1 -> origin,
# p2 -> p1), drives 1000 reader sessions through the leaf with
# tools/loadgen (95% reads, 20% subscribers, background writers on
# the origin), and asserts via tools/smokecheck that the run was
# error-free with bounded observed staleness and that notify fan-out
# happened at the edge: the origin's session and notification counts
# track its proxy subscriptions, not the 1000 readers. Then the chaos
# leg: kill the leaf's upstream (p1) and require the leaf's health
# verdict to degrade while it keeps serving stale, restart p1 and
# require recovery back to ok.
proxy-smoke:
	@set -e; \
	$(GO) build -o iwserver-smoke ./cmd/iwserver; \
	$(GO) build -o iwproxy-smoke ./cmd/iwproxy; \
	$(GO) build -o smokecheck-bin ./tools/smokecheck; \
	trap 'kill $$S0 $$P1 $$P2 2>/dev/null; rm -f iwserver-smoke iwproxy-smoke smokecheck-bin' EXIT; \
	./iwserver-smoke -quiet -addr 127.0.0.1:7791 -metrics-addr 127.0.0.1:9991 & S0=$$!; \
	./iwproxy-smoke -quiet -addr 127.0.0.1:7792 -upstream 127.0.0.1:7791 \
		-max-lag 8 -sync-every 250ms -metrics-addr 127.0.0.1:9992 & P1=$$!; \
	./iwproxy-smoke -quiet -addr 127.0.0.1:7793 -upstream 127.0.0.1:7792 \
		-max-lag 8 -sync-every 250ms -metrics-addr 127.0.0.1:9993 & P2=$$!; \
	sleep 1; \
	$(GO) run ./tools/loadgen -addr 127.0.0.1:7791 -via-proxy 127.0.0.1:7793 \
		-sessions 1000 -conns 8 -rate 500 -duration 5s \
		-read-ratio 0.95 -subscribe 0.2 -segments 4 -writers 2 \
		-json proxy-smoke.json; \
	./smokecheck-bin -report proxy-smoke.json -origin 127.0.0.1:9991 -leaf 127.0.0.1:9993; \
	echo "proxy-smoke: killing mid-tier proxy (leaf upstream)"; \
	kill $$P1; \
	./smokecheck-bin -wait-status degraded -leaf 127.0.0.1:9993 -timeout 15s; \
	echo "proxy-smoke: restarting mid-tier proxy"; \
	./iwproxy-smoke -quiet -addr 127.0.0.1:7792 -upstream 127.0.0.1:7791 \
		-max-lag 8 -sync-every 250ms -metrics-addr 127.0.0.1:9992 & P1=$$!; \
	./smokecheck-bin -wait-status ok -leaf 127.0.0.1:9993 -timeout 15s; \
	echo "proxy-smoke: fan-out independent of reader count; degraded/recovered cleanly (proxy-smoke.json)"

# Cold-segment eviction smoke (also run in CI, DESIGN.md §12): a
# journal-mode server with a resident budget ~4x smaller than the
# loadgen working set (32 hot segments) serves reads + writes + via-
# proxy reads with zero client-visible errors while the evictor drops
# and reloads segments; tools/smokecheck gates on a clean report, positive
# eviction/fault counters, and resident bytes <= budget + one segment.
evict-smoke:
	@set -e; \
	$(GO) build -o iwserver-smoke ./cmd/iwserver; \
	$(GO) build -o iwproxy-smoke ./cmd/iwproxy; \
	$(GO) build -o smokecheck-bin ./tools/smokecheck; \
	rm -rf evict-smoke-journal; \
	trap 'kill $$S0 $$P1 2>/dev/null; wait $$S0 $$P1 2>/dev/null; rm -rf iwserver-smoke iwproxy-smoke smokecheck-bin evict-smoke-journal' EXIT; \
	./iwserver-smoke -quiet -addr 127.0.0.1:7795 -metrics-addr 127.0.0.1:9995 \
		-journal-dir evict-smoke-journal \
		-max-resident-bytes 16384 -evict-interval 100ms & S0=$$!; \
	./iwproxy-smoke -quiet -addr 127.0.0.1:7796 -upstream 127.0.0.1:7795 \
		-max-lag 8 -sync-every 250ms & P1=$$!; \
	sleep 1; \
	$(GO) run ./tools/loadgen -addr 127.0.0.1:7795 -via-proxy 127.0.0.1:7796 \
		-sessions 200 -conns 8 -rate 400 -duration 5s \
		-read-ratio 0.7 -subscribe 0.2 -segments 32 -writers 8 \
		-json evict-smoke.json; \
	./smokecheck-bin -report evict-smoke.json -origin 127.0.0.1:9995 -budget 16384; \
	echo "evict-smoke: working set outgrew the 16KB budget with zero client-visible errors (evict-smoke.json)"

# Figure regeneration (EXPERIMENTS.md): -iters 3 matches the
# recorded tables.
figures:
	$(GO) run ./cmd/iwfigures -iters 3 all

fig4 fig5 fig6 fig7:
	$(GO) run ./cmd/iwfigures -iters 3 $@

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/calendar
	$(GO) run ./examples/datamining -updates 4
	$(GO) run ./examples/astroflow -steps 8 -every 8
	$(GO) run ./examples/cluster

# Three-node cluster walk-through (DESIGN.md §7): redirect routing,
# replica streaming, a primary killed mid-write via faultnet, and a
# live segment migration, all in one process.
cluster-demo:
	$(GO) run ./examples/cluster

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Documentation checks (also run in CI): godoc coverage and offline
# markdown link validation.
doccheck:
	$(GO) run ./tools/doccheck . ./internal/... ./cmd/... ./tools/... ./examples/...

linkcheck:
	$(GO) run ./tools/linkcheck README.md DESIGN.md PROTOCOL.md EXPERIMENTS.md OBSERVABILITY.md CAPACITY.md

clean:
	rm -f cover.out loadgen-slo.json loadgen-smoke.json iwtop-smoke.json iwtop-smoke.err iwserver-smoke iwproxy-smoke smokecheck-bin proxy-smoke.json evict-smoke.json
	rm -rf evict-smoke-journal
