# Convenience targets; dune does the real work.

.PHONY: all build test bench check linkage-gate clean

# Linkage exclusivity: the privacy broker is the only sanctioned path from
# an EphID back to a host identity. Any direct Audit.bindings_of /
# Audit.find_sender caller outside lib/broker/ (and audit's own
# definition) bypasses budgets and the decision journal — fail the build.
linkage-gate:
	@violations=$$(grep -rn "Audit\.bindings_of\|Audit\.find_sender" \
	  lib bin bench examples test \
	  --include='*.ml' --include='*.mli' \
	  | grep -v "^lib/broker/" | grep -v "^lib/core/audit\." || true); \
	if [ -n "$$violations" ]; then \
	  echo "linkage-gate: direct audit linkage outside the broker:"; \
	  echo "$$violations"; \
	  exit 1; \
	fi; \
	echo "linkage-gate: OK (all EphID->HID linkage goes through lib/broker)"

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Asserts that BENCH_results.json has a non-empty "gates" array, that every
# row passed, and that each gate named on the command line is present, so
# a refactor that silently drops a gate fails the check.
GATES = python3 -c 'import json, sys; g = json.load(open("BENCH_results.json"))["gates"]; names = {r["name"] for r in g}; assert g and all(r["ok"] for r in g), g; missing = set(sys.argv[1:]) - names; assert not missing, missing'

# CI gate: full build, every test suite, a flight-recorder smoke (apnad
# trace must export a Chrome trace that trace_check validates: a JSON
# array whose every element carries name/ph/ts, with at least one "X"
# stage entry carrying a numeric dur >= 0), then one --quick smoke per
# gated bench experiment, each writing the single results document
# BENCH_results.json (schema apna-bench/2; the harness re-parses it
# itself and fails loudly if it is invalid). After each gated smoke,
# GATES checks the gate rows for that experiment:
#   E13 chaos (control-plane convergence under injected loss; its
#       telemetry.fault_sweep rows must show the replay-flood alert fired),
#   E14 short-lifetime survivability (sessions migrating across Short
#       EphID expiries under the fault mix; it has no gate rows),
#   E15 warrant storm (brokered linkage under budget pressure against
#       live traffic, with the data-plane regression gate),
#   E16 trace scale (reduced-population million-host replay with its
#       peak-rate and baseline gates),
#   E17 burst pipeline (batched egress with its allocation and regression
#       gates),
#   E18 attack campaign (the 1% misbehavior tier against the hardened
#       accountability agent; its output must show the shutoff-stall and
#       revocation-storm alerts firing AND resolving).
# A stale mode flag such as --faults must be refused (exit 2). The plain
# --quick run goes last so the final BENCH_results.json is the regular
# one, then the broker journal dump; the linkage grep gate runs first.
check: linkage-gate
	dune build @all
	dune runtest
	dune exec bin/apnad.exe -- trace --loss 0.05 --drops --chrome /tmp/apna_chrome_trace.json > /dev/null
	dune exec bin/trace_check.exe /tmp/apna_chrome_trace.json
	! dune exec bench/main.exe -- --faults
	rm -f BENCH_results.json
	dune exec bench/main.exe -- --quick E13
	$(GATES) alert.replay-flood+link-loss
	python3 -c 'import json; rows = json.load(open("BENCH_results.json"))["telemetry"]["fault_sweep"]["rows"]; assert any("replay-flood" in r["rules_fired"] for r in rows), rows'
	rm -f BENCH_results.json
	dune exec bench/main.exe -- --quick E14
	test -s BENCH_results.json
	rm -f BENCH_results.json
	dune exec bench/main.exe -- --quick E15
	$(GATES) journal_chain_verified.cap50 journal_chain_verified.cap500 idle_broker_ingress_p50_added_ns alert.broker-budget-drain
	rm -f BENCH_results.json
	dune exec bench/main.exe -- --quick E16
	$(GATES) peak_flows_per_s baseline.p99_issuance_us_per_grant baseline.peak_live_words
	rm -f BENCH_results.json
	dune exec bench/main.exe -- --quick E17
	$(GATES) burst_cached_allocs_per_pkt burst_vs_single_cached_ns_per_pkt baseline.burst_cached_ns_per_pkt baseline.burst_cached_allocs_per_pkt
	rm -f BENCH_results.json
	dune exec bench/main.exe -- --quick E18 > /tmp/apna_campaign_smoke.txt
	cat /tmp/apna_campaign_smoke.txt
	$(GATES) legit_delivery_ratio aa_queue_peak aa_ledger_accounted br_drops_typed bruteforce_replay_contained shutoff_propagation_samples alert.shutoff-stall alert.revocation-storm
	grep -q 'alert gate ok: shutoff-stall fired and resolved' /tmp/apna_campaign_smoke.txt
	grep -q 'alert gate ok: revocation-storm fired and resolved' /tmp/apna_campaign_smoke.txt
	rm -f BENCH_results.json
	dune exec bench/main.exe -- --quick
	test -s BENCH_results.json
	dune exec bin/apnad.exe -- broker --dump /tmp/apna_broker_journal.txt > /dev/null
	test -s /tmp/apna_broker_journal.txt
	@echo "check: OK (trace + chaos + lifetime + warrant-storm + trace-scale + burst + attack-campaign smokes passed, every gate row ok, linkage gate clean, BENCH_results.json written and validated)"

clean:
	dune clean
	rm -f BENCH_results.json
