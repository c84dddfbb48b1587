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

# CI gate: full build, every test suite, a flight-recorder smoke (apnad
# trace must export a Chrome trace that trace_check validates: a JSON
# array whose every element carries name/ph/ts, with at least one "X"
# stage entry carrying a numeric dur >= 0), the chaos smoke
# (control-plane convergence under injected loss, E13), the
# short-lifetime survivability smoke (sessions migrating across Short
# EphID expiries under the fault mix, E14), the burst-pipeline smoke
# (E17: batched egress with its allocation and regression gates, writing
# burst.json), and a smoke run of the
# benchmark harness that must produce a parseable BENCH_results.json
# (the harness re-parses the file itself and fails loudly if it is
# invalid; the --faults smoke must also produce a telemetry.json whose
# fault-sweep rows fired the replay-flood alert), plus the
# warrant-storm smoke (E15: brokered linkage under
# budget pressure against live traffic, with the data-plane regression
# gate), the trace-scale smoke (E16: reduced-population million-host
# replay with its peak-rate and baseline gates, writing
# trace_scale.json), the attack-campaign smoke (E18: the 1% misbehavior
# tier against the hardened accountability agent, writing
# attack_campaign.json; its output must show the shutoff-stall and
# revocation-storm alerts firing AND resolving) and the linkage grep
# gate. The chaos, lifetime, storm, scale, burst and campaign smokes run
# first so the final BENCH_results.json is the regular one.
check: linkage-gate
	dune build @all
	dune runtest
	dune exec bin/apnad.exe -- trace --loss 0.05 --drops --chrome /tmp/apna_chrome_trace.json > /dev/null
	dune exec bin/trace_check.exe /tmp/apna_chrome_trace.json
	rm -f BENCH_results.json telemetry.json
	dune exec bench/main.exe -- --faults --quick
	test -s BENCH_results.json
	test -s telemetry.json
	grep -q '"replay-flood"' telemetry.json
	rm -f BENCH_results.json
	dune exec bench/main.exe -- --lifetimes --quick
	test -s BENCH_results.json
	rm -f BENCH_results.json
	dune exec bench/main.exe -- --storm --quick
	test -s BENCH_results.json
	rm -f BENCH_results.json trace_scale.json
	dune exec bench/main.exe -- --trace-scale --quick
	test -s BENCH_results.json
	test -s trace_scale.json
	rm -f BENCH_results.json burst.json
	dune exec bench/main.exe -- --burst --quick
	test -s BENCH_results.json
	test -s burst.json
	rm -f BENCH_results.json attack_campaign.json
	dune exec bench/main.exe -- --campaign --quick > /tmp/apna_campaign_smoke.txt
	cat /tmp/apna_campaign_smoke.txt
	test -s BENCH_results.json
	test -s attack_campaign.json
	grep -q 'alert gate ok: shutoff-stall fired and resolved' /tmp/apna_campaign_smoke.txt
	grep -q 'alert gate ok: revocation-storm fired and resolved' /tmp/apna_campaign_smoke.txt
	rm -f BENCH_results.json
	dune exec bench/main.exe -- --quick
	test -s BENCH_results.json
	dune exec bin/apnad.exe -- broker --dump /tmp/apna_broker_journal.txt > /dev/null
	test -s /tmp/apna_broker_journal.txt
	@echo "check: OK (trace + chaos + lifetime + warrant-storm + attack-campaign smokes passed, linkage gate clean, BENCH_results.json written and validated)"

clean:
	dune clean
	rm -f BENCH_results.json
