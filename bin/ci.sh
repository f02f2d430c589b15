#!/bin/sh
# CI entry point: full build, test suite, a long sweep of the bigint,
# hash, DGKA and protocol-level (SPK) property tests (QCHECK_LONG=1
# multiplies each property's count by its long_factor), the shs_lint
# static-analysis gate — one typed whole-program pass, in-place planted
# violations proving it can fail, and a JSON-determinism check — a
# bounds-check scan (no unsafe
# array access, no unsafe bytes/string aliasing, no -unsafe flag, with
# planted-violation checks), the
# bench regression gate
# against the checked-in baseline (plus a perturbation check proving the
# gate can fail), a bounded protocol-fuzz smoke, a 1000-session
# concurrent-swarm determinism + isolation smoke, a deterministic
# trace-export smoke, a byte-identical cost-profile export check, a
# byte-identical churn-dashboard export check, and the demo's --metrics
# and --prometheus reports.  Run from the repository root.
set -eu

echo "== build =="
dune build @all

echo "== tests =="
dune runtest

echo "== property sweep: long_factor counts (QCHECK_LONG) =="
QCHECK_LONG=1 dune exec test/test_bigint.exe
QCHECK_LONG=1 dune exec test/test_hash.exe
QCHECK_LONG=1 dune exec test/test_dgka.exe
QCHECK_LONG=1 dune exec test/test_props.exe

out=$(mktemp /tmp/shs_bench_XXXXXX.json)
perturbed=$(mktemp /tmp/shs_perturb_XXXXXX.json)
trace1=$(mktemp /tmp/shs_trace1_XXXXXX.json)
trace2=$(mktemp /tmp/shs_trace2_XXXXXX.json)
fuzz1=$(mktemp /tmp/shs_fuzz1_XXXXXX.txt)
fuzz2=$(mktemp /tmp/shs_fuzz2_XXXXXX.txt)
lint1=$(mktemp /tmp/shs_lint1_XXXXXX.json)
lint2=$(mktemp /tmp/shs_lint2_XXXXXX.json)
prof1=$(mktemp -d /tmp/shs_prof1_XXXXXX)
prof2=$(mktemp -d /tmp/shs_prof2_XXXXXX)
dash1=$(mktemp -d /tmp/shs_dash1_XXXXXX)
dash2=$(mktemp -d /tmp/shs_dash2_XXXXXX)
prom=$(mktemp /tmp/shs_prom_XXXXXX.txt)
lintbad=$(mktemp -d /tmp/shs_lintbad_XXXXXX)
swarm1=$(mktemp /tmp/shs_swarm1_XXXXXX.txt)
swarm2=$(mktemp /tmp/shs_swarm2_XXXXXX.txt)
unsafebad=$(mktemp -d /tmp/shs_unsafebad_XXXXXX)
# put back every file a lint proof patched in place
unplant () {
  for f in lib/core/gcd.ml lib/core/engine/swarm.ml \
    lib/core/engine/swarm.mli lib/pke/dhies.ml; do
    backup="$lintbad/$(echo "$f" | tr / _)"
    if [ -f "$backup" ]; then mv "$backup" "$f"; fi
  done
}
trap 'unplant; rm -f "$out" "$perturbed" "$trace1" "$trace2" "$fuzz1" "$fuzz2" "$lint1" "$lint2" "$prom" "$swarm1" "$swarm2"; rm -rf "$lintbad" "$prof1" "$prof2" "$dash1" "$dash2" "$unsafebad"' EXIT

echo "== lint gate: zero findings outside inline suppressions =="
dune build @lint

echo "== lint determinism: identical JSON across runs =="
dune exec bin/shs_lint.exe -- --json > "$lint1"
dune exec bin/shs_lint.exe -- --json > "$lint2"
cmp "$lint1" "$lint2"
grep -q '"schema": "shs-lint/3"' "$lint1"
grep -q '"actionable": 0' "$lint1"

echo "== lint gate: planted violations must fail =="
# each proof patches protocol code in place (undone after the check and
# by the EXIT trap), requires the patched tree to build, and requires
# the linter to exit 1 naming the expected rule and evidence
plant () { # plant FILE SED-SCRIPT
  backup="$lintbad/$(echo "$1" | tr / _)"
  cp "$1" "$backup"
  sed -i "$2" "$1"
  if cmp -s "$backup" "$1"; then
    echo "ci: planting did not change $1" >&2
    exit 1
  fi
}
must_flag () { # must_flag RULE EVIDENCE WHAT
  dune build @check
  status=0
  dune exec bin/shs_lint.exe -- --quiet > "$lint2" || status=$?
  unplant
  if [ "$status" -ne 1 ] || ! grep -q "\[$1\]" "$lint2" \
    || ! grep -qF "$2" "$lint2"; then
    echo "ci: lint gate failed to flag $3" >&2
    exit 1
  fi
}
# a variable-time compare of the Phase II tag: the MAC's compare-only
# taint must reach String.equal through the mac_phase2 wrapper
plant lib/core/gcd.ml \
  's/Hmac.equal_ct mac (mac_phase2 ~tag_key ~sid j)/String.equal mac (mac_phase2 ~tag_key ~sid j)/'
must_flag NO-POLY-COMPARE "Hmac.mac_prepared (MAC output)" \
  "a String.equal over the tag in Gcd.mac_valid"
# k' printed in Gcd.emit_phase2: xor_bytes launders its taint, so the
# lib/ emitter clause is what catches it
plant lib/core/gcd.ml \
  's/^    let tag_key = Hmac.prepare kprime in$/&\n    print_string kprime;/'
must_flag NO-SECRET-PRINT "(emit_phase2) print_string" \
  "print_string kprime in Gcd.emit_phase2"
# a partial decode entry under the session-engine directory; swarm.ml
# has an interface, so the plant is exported to keep the tree building
plant lib/core/engine/swarm.ml '$s/$/\nlet decode_frame s = Option.get (Wire.decode s)/'
plant lib/core/engine/swarm.mli '$s/$/\n\nval decode_frame : string -> string * string list/'
must_flag TOTAL-DECODE "decode entry Swarm.decode_frame" \
  "Option.get on a decode path under lib/core/engine"
# the [@shs.secret]-tagged DHIES decryption exponent printed through
# Bigint.to_hex: the taint pass must trace the flow into Format.printf
plant lib/pke/dhies.ml \
  '/\[@shs\.secret\]) in$/s/$/\n  Format.printf "x=%s@." (B.to_hex x);/'
must_flag NO-SECRET-PRINT "[@shs.secret]" \
  "a printed [@shs.secret] exponent in Dhies"
dune build @lint

echo "== bounds checks: no unsafe access or aliasing, no -unsafe flag =="
# the bigint kernels index limb arrays in tight loops, where an
# unchecked read is most tempting; every access stays bounds-checked.
# The hash layer builds digests in scratch Bytes, where aliasing the
# buffer as a string is most tempting: a digest that aliases a buffer
# written later would silently corrupt a stored key
unsafe_scan () {
  grep -rnE --include='*.ml' --include='*.mli' --include=dune \
    'unsafe_get|unsafe_set|unsafe_to_string|unsafe_of_string|-unsafe' "$@"
}
if unsafe_scan lib bin bench dune; then
  echo "ci: unsafe access, unsafe aliasing or -unsafe flag in the tree" >&2
  exit 1
fi
# must-fail: each planted construct has to trip the scan
mkdir -p "$unsafebad/lib"
for planted in 'let first a = Array.unsafe_get a 0' \
  'let freeze b = Bytes.unsafe_to_string b' \
  'let thaw s = Bytes.unsafe_of_string s'; do
  echo "$planted" > "$unsafebad/lib/evil.ml"
  if ! unsafe_scan "$unsafebad/lib" > /dev/null; then
    echo "ci: bounds-check scan missed a planted violation: $planted" >&2
    exit 1
  fi
done

echo "== bench regression gate: compare vs BENCH_8.json =="
# the live gate runs the same invocation that generated BENCH_8.json,
# so the experiment sets match and the synthesized rows (per-experiment
# "bigint.mul total", document-level "elapsed_s") are gated too.  It is
# the one live baseline: e1 pins the per-party exponentiation counts.  e3
# carries the multi-exponentiation count ablation, which fails hard on
# its own if the fixed-base arm loses its >= 2x mul cut over folded
# pow_mod, and the products of one warm KTY verify at |CRL| = 0, 1, 2,
# 4, 8 and 16;
# e14 fails hard on its own if either tree scheme's churn telemetry
# comes back empty or a tracked member fails to apply a rekey; e15
# fails hard on its own if the 1000-session swarm is not byte-identical
# across two seeded runs or any untargeted session under the Byzantine
# sweep fails to complete
dune exec bench/main.exe -- --only e1,e2,e3,e10,e11,e12,e13,e14,e15 --quota 0.05 \
  --json "$out" --compare BENCH_8.json
grep -q '"scheme1 exps/party"' "$out"
grep -q '"verify muls (folded)"' "$out"
grep -q '"verify muls (multi+fixed)"' "$out"
grep -q '"spk muls (multi)"' "$out"
grep -q '"kty verify muls"' "$out"
grep -q '"schema": "shs-bench/1"' "$out"
grep -q 'prof.bigint.mul:' "$out"
grep -q 'prof.limb_words:' "$out"
grep -q 'prof.alloc.minor_words' "$out"
grep -q '"bigint.fb_table_words"' "$out"
grep -q 'attributed fraction' "$out"
grep -q '"provenance"' "$out"
grep -q '"scheme1 msgs/party"' "$out"
grep -q '"net.messages"' "$out"
grep -q '"gcd.handshake"' "$out"
grep -q '"complete fraction m=4"' "$out"
grep -q '"complete fraction m=8"' "$out"
grep -q '"net.dropped"' "$out"
grep -q '"net.duplicated"' "$out"
grep -q '"gcd.timeouts"' "$out"
grep -q '"gcd.retransmissions"' "$out"
grep -q '"p95"' "$out"
grep -q 'net.drop instants' "$out"
grep -q '"lkh rekey latency p50"' "$out"
grep -q '"lkh tree size last"' "$out"
grep -q '"oft tree size last"' "$out"
grep -q '"oft rekey latency p95"' "$out"
grep -q '"throughput"' "$out"
grep -q '"flow latency p99"' "$out"
grep -q '"overload rejected"' "$out"
grep -q '"byz untargeted complete fraction"' "$out"
grep -q '"engine.admitted"' "$out"
grep -q '"engine.reaped"' "$out"

echo "== bench regression gate: perturbed churn telemetry must fail =="
# flip the e14 tracked-delivery counts; the gate must flag the drift
sed 's/"value": 2304,/"value": 999,/' BENCH_8.json > "$perturbed"
if cmp -s BENCH_8.json "$perturbed"; then
  echo "ci: perturbation did not change the churn baseline" >&2
  exit 1
fi
if dune exec bench/main.exe -- --compare BENCH_8.json --against "$perturbed"; then
  echo "ci: compare gate failed to flag perturbed churn telemetry" >&2
  exit 1
fi

echo "== bench regression gate: perturbed swarm telemetry must fail =="
# flip the e15 overload-rejection count; the gate must flag the drift
awk '/"series": "overload rejected",/ { hot = 1 }
     hot && /"value":/ { sub(/"value": [0-9.eE+-]+,/, "\"value\": 1,"); hot = 0 }
     { print }' BENCH_8.json > "$perturbed"
if cmp -s BENCH_8.json "$perturbed"; then
  echo "ci: perturbation did not change the swarm baseline" >&2
  exit 1
fi
if dune exec bench/main.exe -- --compare BENCH_8.json --against "$perturbed"; then
  echo "ci: compare gate failed to flag perturbed swarm telemetry" >&2
  exit 1
fi

echo "== fuzz smoke: 501 adversarial sessions, hard failure on violation =="
# 167 sessions under each of the three fixed attack seeds; shs_demo fuzz
# exits nonzero if any session raises, leaves a party non-terminal, or
# breaks an honest same-group subset
dune exec bin/shs_demo.exe -- fuzz --sessions 167 --attack-seeds 101,202,303
# determinism: identical seeds must emit byte-identical summaries
dune exec bin/shs_demo.exe -- fuzz --sessions 5 > "$fuzz1"
dune exec bin/shs_demo.exe -- fuzz --sessions 5 > "$fuzz2"
cmp "$fuzz1" "$fuzz2"
grep -q 'all invariants held' "$fuzz1"

echo "== swarm smoke: 1000 concurrent sessions, byte-identical summaries =="
# the concurrent-session engine at CI scale: 1000 Poisson arrivals over
# one scheduler with every 5th session on a lossy channel and every 7th
# seating a Byzantine adversary.  shs_demo swarm exits nonzero if any
# untargeted session fails (the isolation gate), and two identically
# seeded runs must agree to the byte
dune exec bin/shs_demo.exe -- swarm --sessions 1000 --members 4 \
  --drop-every 5 --byz-every 7 > "$swarm1"
dune exec bin/shs_demo.exe -- swarm --sessions 1000 --members 4 \
  --drop-every 5 --byz-every 7 > "$swarm2"
cmp "$swarm1" "$swarm2"
grep -q '1000 submitted, 1000 admitted' "$swarm1"
grep -q '100% of untargeted sessions complete' "$swarm1"

echo "== trace smoke: deterministic Chrome trace export =="
dune exec bin/shs_demo.exe -- trace --drop 0.2 --net-seed 7 -o "$trace1" > /dev/null
dune exec bin/shs_demo.exe -- trace --drop 0.2 --net-seed 7 -o "$trace2" > /dev/null
cmp "$trace1" "$trace2"
grep -q '"traceEvents"' "$trace1"
grep -q '"ph": "s"' "$trace1"
grep -q 'gcd.retransmit' "$trace1"

echo "== profile smoke: byte-identical cost-attribution exports =="
dune exec bin/shs_demo.exe -- profile --net-seed 7 -o "$prof1/p" > /dev/null
dune exec bin/shs_demo.exe -- profile --net-seed 7 -o "$prof2/p" > /dev/null
cmp "$prof1/p.collapsed" "$prof2/p.collapsed"
cmp "$prof1/p.speedscope.json" "$prof2/p.speedscope.json"
grep -q 'gcd.handshake.phase3' "$prof1/p.collapsed"
grep -q 'spk.eq' "$prof1/p.collapsed"
grep -q '"exporter": "shs_prof"' "$prof1/p.speedscope.json"
grep -q '"name": "limb words"' "$prof1/p.speedscope.json"

echo "== obs smoke: shs_demo --metrics =="
report=$(dune exec bin/shs_demo.exe -- handshake -m 2 --metrics \
  --drop 0.2 --net-seed 7)
echo "$report" | grep -q 'gcd.handshake.phase3'
echo "$report" | grep -q 'gsig.sign'
echo "$report" | grep -q 'p50'
echo "$report" | grep -q 'instant events'
echo "$report" | grep -q 'cost attribution'
echo "$report" | grep -q 'attributed:'

echo "== obs smoke: shs_demo --prometheus exposition =="
dune exec bin/shs_demo.exe -- handshake -m 2 --prometheus -o "$prom" \
  --net-seed 7 > /dev/null
grep -q '^# TYPE shs_gcd_sessions counter' "$prom"
grep -q ' gauge$' "$prom"
grep -q '^shs_' "$prom"

echo "== dashboard smoke: byte-identical churn telemetry exports =="
dune exec bin/shs_demo.exe -- dashboard --members 512 --events 40 \
  --seed 7 -o "$dash1/d" > /dev/null
dune exec bin/shs_demo.exe -- dashboard --members 512 --events 40 \
  --seed 7 -o "$dash2/d" > /dev/null
cmp "$dash1/d.csv" "$dash2/d.csv"
cmp "$dash1/d.html" "$dash2/d.html"
grep -q '^series,unit,ts,value' "$dash1/d.csv"
grep -q '^rekey latency p95,' "$dash1/d.csv"
grep -q '^tree size,' "$dash1/d.csv"
grep -q '<svg' "$dash1/d.html"
grep -q 'rekey latency p50' "$dash1/d.html"

echo "ci: all checks passed"
