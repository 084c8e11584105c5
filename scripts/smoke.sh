#!/usr/bin/env bash
# End-to-end smoke checks of the command-line tools, run by `make smoke`
# and CI. The commands are built once into $OUT/bin; every
# artifact a check leaves behind (timelines, journals, snapshots)
# stays in $OUT for upload and for loading into Perfetto by hand.
#
#   trace     two identical-seed suites, one traced; their journals must
#             `journal diff` clean, and the timeline must hold no
#             per-branch "predict" or "update" slice: the harness
#             records one slice per record batch, never one per branch.
#   flags     a count flag below its floor (a negative -n, -delay,
#             -skip, -workers, ...), a flag value that would run without
#             effect (-probe-state-every 0, -probe-state-every without
#             -probe-state, -checkpoint-every without -checkpoint, a
#             -skip as long as the trace, a warm-up as long as what
#             -skip leaves), an unknown trace or figure, a -seeds too
#             small for a variance, or a flag the command does not
#             define (analyze has no -journal, and neither bfsim nor
#             experiments has -runtime-trace) must exit 2 with a
#             message and no panic.
#   snapshot  for each headline predictor, every engine and history
#             included, a straight run must equal a split run (half with
#             -checkpoint, then -resume -skip): branches and mispredicts
#             summed over the legs, exactly. Resuming from the snapshot
#             with its last byte cut must exit 1 with a "state:" message
#             and no panic.
#   window    a journaled -window run must carry window events, all of
#             them counted by `journal summary -json`, and its timeline
#             must carry the mpki Perfetto counter track ("ph":"C").
#   xray      a -probe-state -explain run must journal tablestats events
#             that `journal summary` reduces to table-state rows, and a
#             TAGE-class predictor's component_attribution event must
#             carry a non-empty "bank_hits" array.
#   codec     a tracegen BFT1 file replayed with bfsim -f must equal the
#             synthetic run it was written from in every CSV column but
#             the trace name (an explicit -warmup: -t takes its 10% from
#             -n, -f from the file's record count), and traceinfo of the
#             file must equal traceinfo -t below the name line. The file
#             cut by one byte must exit 1 with a "trace:" message and no
#             panic.
#
# The live metrics surface (/metrics and pprof) is covered by the Go
# tests in internal/telemetry, so no check here binds a port.
#
# Usage: scripts/smoke.sh   (env: GO, OUT=smoke_ci)
#
# No pipefail: `cmd | grep -q` checks would fail whenever grep exits at
# its first match and the writer takes a SIGPIPE.
set -eu

GO=${GO:-go}
OUT=${OUT:-smoke_ci}

fail() { echo "smoke: $*" >&2; exit 1; }

rm -rf "$OUT"
mkdir -p "$OUT/bin"
for cmd in bfsim journal analyze traceinfo tracegen experiments; do
	"$GO" build -o "$OUT/bin/$cmd" "./cmd/$cmd"
done
bfsim=$OUT/bin/bfsim
journal=$OUT/bin/journal

# trace
"$bfsim" -p bimodal,gshare -t INT1,MM1 -n 100000 \
	-trace-out "$OUT/trace.json" -journal "$OUT/journal.jsonl" > /dev/null
"$bfsim" -p bimodal,gshare -t INT1,MM1 -n 100000 -journal "$OUT/journal_b.jsonl" > /dev/null
"$journal" summary "$OUT/journal.jsonl"
"$journal" diff "$OUT/journal.jsonl" "$OUT/journal_b.jsonl"
if grep -Eq '"cat":"(predict|update)"' "$OUT/trace.json"; then
	fail "trace: timeline has per-branch predict/update slices"
fi
echo "smoke: trace ok"

# flags
while read -r cmd args; do
	code=0
	# shellcheck disable=SC2086 # args is a flag list
	"$OUT/bin/$cmd" $args > /dev/null 2> "$OUT/flags.err" || code=$?
	[ "$code" -eq 2 ] || fail "flags: $cmd $args exited $code, want 2"
	[ -s "$OUT/flags.err" ] || fail "flags: $cmd $args printed no message"
	if grep -q 'panic:' "$OUT/flags.err"; then
		fail "flags: $cmd $args panicked"
	fi
done <<CASES
analyze -t SERV1 -p bimodal -n -1000
traceinfo -t SERV1 -n -10
bfsim -t SERV1 -p bimodal -n -5
tracegen -t SERV1 -n -10 -o $OUT/tracegen
bfsim -t SERV1 -p bimodal -n 1000 -delay -3
bfsim -t SERV1 -p bimodal -n 1000 -skip -1
bfsim -t SERV1 -p bimodal -n 1000 -offenders -1
bfsim -t SERV1 -p bimodal -n 1000 -warmup -7
bfsim -t SERV1 -p bimodal -n 1000 -workers -1
bfsim -t SERV1 -p bimodal -n 1000 -probe-state -probe-state-every 0
bfsim -t SERV1 -p bimodal -n 1000 -warmup 5000
bfsim -t SERV1 -p bimodal -n 1000 -skip 900 -warmup 500
bfsim -t SERV1 -p bimodal -n 1000 -skip 5000
bfsim -t SERV1 -p bimodal -n 1000 -probe-state-every 100
bfsim -t SERV1 -p bimodal -n 1000 -checkpoint-every 100
analyze -t SERV1 -p bimodal -n 1000 -offenders -1
analyze -t SERV1 -p bimodal -n 1000 -journal $OUT/none.jsonl
bfsim -t SERV1 -p bimodal -n 1000 -runtime-trace $OUT/none.rtrace
experiments -fig 2 -runtime-trace $OUT/none.rtrace
experiments -variance NOPE
experiments -fig 99
experiments -fig 2 -traces NOPE
experiments -long -5 -fig 2
experiments -variance SPEC03 -seeds 1
CASES
rm -f "$OUT/flags.err"
echo "smoke: flags ok"

# snapshot
snap=$OUT/snap.bin
for p in bimodal gshare isl-tage-15 bf-neural bf-neural-ghist perceptron-fhist strided \
	bf-tage-10 o-gehl bf-gehl; do
	s=$("$bfsim" -p "$p" -t INT1 -n 60000 -warmup 0 -csv | tail -1)
	a=$("$bfsim" -p "$p" -t INT1 -n 30000 -warmup 0 -csv -checkpoint "$snap" 2> /dev/null | tail -1)
	skip=$(echo "$a" | cut -d, -f3)
	b=$("$bfsim" -p "$p" -t INT1 -n 60000 -warmup 0 -csv -resume "$snap" -skip "$skip" | tail -1)
	sb=$(echo "$s" | cut -d, -f3); sm=$(echo "$s" | cut -d, -f5)
	ab=$(echo "$a" | cut -d, -f3); am=$(echo "$a" | cut -d, -f5)
	bb=$(echo "$b" | cut -d, -f3); bm=$(echo "$b" | cut -d, -f5)
	if [ $((ab + bb)) -ne "$sb" ] || [ $((am + bm)) -ne "$sm" ]; then
		fail "snapshot: $p drift: straight $sb br/$sm misp, split $((ab + bb))/$((am + bm))"
	fi
	head -c -1 "$snap" > "$snap.cut"
	code=0
	"$bfsim" -p "$p" -t INT1 -n 60000 -warmup 0 -resume "$snap.cut" -skip "$skip" \
		> /dev/null 2> "$OUT/cut.err" || code=$?
	[ "$code" -eq 1 ] || fail "snapshot: $p resumed from a cut snapshot exited $code, want 1"
	grep -q 'state:' "$OUT/cut.err" || fail "snapshot: $p cut snapshot printed no state: message"
	if grep -q 'panic:' "$OUT/cut.err"; then
		fail "snapshot: $p cut snapshot panicked"
	fi
	echo "smoke: snapshot $p ok ($sb branches, $sm mispredicts; cut snapshot refused)"
done
rm -f "$snap" "$snap.cut" "$OUT/cut.err"

# window
"$bfsim" -p bf-tage-10 -t SERV1,FP1 -n 200000 -window 20000 \
	-journal "$OUT/window.jsonl" -trace-out "$OUT/window.trace.json" > /dev/null
grep -q '"name":"mpki","ph":"C"' "$OUT/window.trace.json" || fail "window: no mpki counter track in timeline"
windows=$("$journal" summary -json "$OUT/window.jsonl" | sed -n 's/^ *"window": \([0-9]*\),\{0,1\}$/\1/p')
lines=$(grep -c '"event":"window"' "$OUT/window.jsonl" || true)
[ "${windows:-0}" -ge 1 ] || fail "window: journal summary counts no window events"
[ "$windows" -eq "$lines" ] || fail "window: journal summary counts $windows window events, the journal has $lines"
echo "smoke: window ok ($windows window events)"

# xray
"$bfsim" -p bf-tage-8,bimodal -t SERV1 -n 150000 \
	-probe-state -probe-state-every 32768 -explain -journal "$OUT/xray.jsonl" > /dev/null
n=$(grep -c '"event":"tablestats"' "$OUT/xray.jsonl" || true)
[ "$n" -ge 1 ] || fail "xray: no tablestats events in journal"
grep '"event":"component_attribution"' "$OUT/xray.jsonl" | grep '"predictor":"bf-tage-8"' |
	grep -q '"bank_hits":\[[0-9]' || fail "xray: bf-tage-8 component_attribution carries no bank hits"
"$journal" summary "$OUT/xray.jsonl" | grep -q 'table-state samples:' ||
	fail "xray: summary missing table-state rows"
echo "smoke: xray ok ($n tablestats events)"

# codec
bft=$OUT/INT2.bft
"$OUT/bin/tracegen" -t INT2 -n 100000 -o "$OUT" > /dev/null
f=$("$bfsim" -p bf-tage-10,gshare -f "$bft" -warmup 10000 -csv | cut -d, -f2-)
t=$("$bfsim" -p bf-tage-10,gshare -t INT2 -n 100000 -warmup 10000 -csv | cut -d, -f2-)
[ "$f" = "$t" ] || fail "codec: bfsim -f $bft printed
$f
but bfsim -t INT2 printed
$t"
f=$("$OUT/bin/traceinfo" "$bft" | tail -n +2)
t=$("$OUT/bin/traceinfo" -t INT2 -n 100000 | tail -n +2)
[ "$f" = "$t" ] || fail "codec: traceinfo $bft differs from traceinfo -t INT2"
head -c -1 "$bft" > "$bft.cut"
code=0
"$bfsim" -p gshare -f "$bft.cut" > /dev/null 2> "$OUT/codec.err" || code=$?
[ "$code" -eq 1 ] || fail "codec: bfsim -f on a cut file exited $code, want 1"
grep -q 'trace:' "$OUT/codec.err" || fail "codec: a cut file printed no trace: message"
if grep -q 'panic:' "$OUT/codec.err"; then
	fail "codec: a cut file panicked"
fi
rm -f "$bft" "$bft.cut" "$OUT/codec.err"
echo "smoke: codec ok (bfsim -f and traceinfo match -t INT2; cut file refused)"
