#!/usr/bin/env bash
# contractcov.sh measures contract coverage: which functions the committed
# outputs reach. The contract is the goldens under specs/golden/, the
# experiment tables (`experiments -quick`, whose CSV form has its own
# golden), every specs/*.json through cmd/run, every examples/* program at
# -quick, and the simd/simc smoke sequences that CI replays against real
# processes.
#
# It builds every binary with `go build -cover -coverpkg=./...`, runs the
# contract against those builds (diffing every golden), then prints the
# coverage per package and every function outside cmd/ and perfbench/ that
# no run reached. An unreached function must either go or be listed in
# tools/contractcov.allow with a one-line reason. Daemons are stopped with
# SIGTERM wherever their counters must count: a SIGKILLed process writes no
# coverage.
#
# Exit status: 0 when every unreached function is allowlisted and every
# allowlist entry still names a function; non-zero otherwise or when a
# golden differs.
#
# Usage (from anywhere in the repo; about two minutes on two cores):
#
#	bash tools/contractcov.sh
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
allow="$root/tools/contractcov.allow"

work="$(mktemp -d)"
pids=()
cleanup() {
	for p in "${pids[@]:-}"; do
		[ -n "$p" ] && kill -KILL "$p" 2>/dev/null || true
	done
	rm -rf "$work"
}
trap cleanup EXIT

bin="$work/bin"
export GOCOVERDIR="$work/cov"
mkdir -p "$bin" "$GOCOVERDIR" "$work/out"

echo "== building -cover binaries" >&2
go build -cover -coverpkg=./... -o "$bin/" ./cmd/experiments ./cmd/sweep ./cmd/run ./cmd/simd ./cmd/simc
examples=()
for d in examples/*/; do
	name="$(basename "$d")"
	go build -cover -coverpkg=./... -o "$bin/example-$name" "./$d"
	examples+=("$name")
done

golden() { # golden <golden file> <output file>
	diff -u "specs/golden/$1" "$2" >&2
}

# startd <state dir> starts a -cover simd on a free port, records its pid in
# $daemon_pid and its base URL in $daemon_url.
startd() {
	local log="$work/simd-$RANDOM.log"
	: >"$log"
	"$bin/simd" -addr 127.0.0.1:0 -state "$1" 2>"$log" >/dev/null &
	daemon_pid=$!
	pids+=("$daemon_pid")
	local addr=""
	for _ in $(seq 100); do
		addr="$(sed -n 's/.*serving on \([^ ]*\) .*/\1/p' "$log")"
		[ -n "$addr" ] && break
		sleep 0.1
	done
	if [ -z "$addr" ]; then
		cat "$log" >&2
		echo "contractcov: simd did not start" >&2
		return 1
	fi
	daemon_url="http://$addr"
}

# stopd <pid> drains a daemon with SIGTERM, so its coverage counters flush.
stopd() {
	kill -TERM "$1"
	wait "$1"
}

echo "== experiments -quick" >&2
"$bin/experiments" -quick >/dev/null
"$bin/experiments" -quick -csv | sed -E '/^   \([0-9.hmsµn]+\)$/d' >"$work/out/experiments-quick.csv"
golden experiments-quick.csv "$work/out/experiments-quick.csv"
"$bin/experiments" -quick -only E1 >/dev/null

echo "== golden sweeps (CSV and JSON Lines)" >&2
for s in sweep-smoke quantile-smoke fault-sweep; do
	"$bin/sweep" -spec "specs/$s.json" >"$work/out/$s.csv"
	golden "$s.csv" "$work/out/$s.csv"
	"$bin/sweep" -spec "specs/$s.json" -json >"$work/out/$s.jsonl"
	golden "$s.jsonl" "$work/out/$s.jsonl"
done
# Checkpoint resume, as the fault-smoke CI job drives it.
timeout -s KILL 0.02 "$bin/sweep" -spec specs/fault-sweep.json -checkpoint "$work/fault.ckpt" >/dev/null 2>&1 || true
"$bin/sweep" -spec specs/fault-sweep.json -checkpoint "$work/fault.ckpt" >"$work/out/resumed.csv"
golden fault-sweep.csv "$work/out/resumed.csv"
"$bin/sweep" -spec specs/fault-sweep.json -checkpoint "$work/fault.ckpt" >"$work/out/replayed.csv"
golden fault-sweep.csv "$work/out/replayed.csv"

echo "== every spec through cmd/run" >&2
"$bin/run" -validate specs/*.json >/dev/null
# The sample spec in every output format, as the examples-smoke CI job runs it.
"$bin/run" -progress specs/sample.json >/dev/null 2>&1
"$bin/run" -csv specs/sample.json >/dev/null
"$bin/run" -json -artifacts "$work/artifacts" specs/sample.json >/dev/null
for f in specs/*.json; do
	case "$f" in
	specs/scale-smoke.json) continue ;;
	esac
	"$bin/run" "$f" >/dev/null
	"$bin/run" -json "$f" >/dev/null
done

echo "== examples -quick" >&2
for name in "${examples[@]}"; do
	"$bin/example-$name" -quick >/dev/null
done

echo "== daemon smoke: submit, SIGKILL, recover, drain, replay" >&2
startd "$work/simd-state"
id="$(curl -fsS -X POST -H 'X-Client: ci' --data-binary @specs/fault-sweep.json "$daemon_url/v1/jobs" |
	grep -o '"id": *"[^"]*"' | head -1 | cut -d'"' -f4)"
test -n "$id"
kill -KILL "$daemon_pid"
wait "$daemon_pid" || true
startd "$work/simd-state"
curl -fsS "$daemon_url/v1/jobs/$id/rows" >"$work/out/recovered.jsonl"
golden fault-sweep.jsonl "$work/out/recovered.jsonl"
curl -fsS "$daemon_url/healthz" >/dev/null
curl -fsS "$daemon_url/readyz" >/dev/null
curl -fsS "$daemon_url/v1/jobs/$id" | grep -q '"state": "done"'
stopd "$daemon_pid"
startd "$work/simd-state"
curl -fsS -X POST -H 'X-Client: ci' --data-binary @specs/fault-sweep.json "$daemon_url/v1/run" >"$work/out/daemon-replayed.jsonl"
golden fault-sweep.jsonl "$work/out/daemon-replayed.jsonl"
curl -fsS "$daemon_url/v1/jobs/$id" | grep -q '"state": "done"'
stopd "$daemon_pid"

echo "== cluster smoke: shard across two workers, kill one, resume" >&2
startd "$work/w1-state"
w1="$daemon_pid" w1url="$daemon_url"
startd "$work/w2-state"
w2="$daemon_pid" w2url="$daemon_url"
(
	sleep 0.05
	kill -KILL "$w2"
) &
killer=$!
"$bin/simc" -spec specs/fault-sweep.json -workers "$w1url,$w2url" \
	-state "$work/simc-state" -backoff 50ms -json >"$work/out/merged.jsonl"
wait "$killer"
wait "$w2" || true
golden fault-sweep.jsonl "$work/out/merged.jsonl"
"$bin/simc" -spec specs/fault-sweep.json -workers "$w1url,$w2url" \
	-state "$work/simc-state" -backoff 50ms -json >"$work/out/merged-replayed.jsonl"
golden fault-sweep.jsonl "$work/out/merged-replayed.jsonl"
"$bin/simc" -spec specs/sweep-smoke.json -workers "$w1url" -backoff 50ms >"$work/out/single.csv"
golden sweep-smoke.csv "$work/out/single.csv"
stopd "$w1"

echo
echo "contract coverage by package:"
# covdata ends the line of a package without statements early; break it.
go tool covdata percent -i="$GOCOVERDIR" | sed 's/\t\t\t/\t\tno statements\n\t/g' | sed 's/^/  /'

# Function list: "<package dir>.<func> <percent>" for every function outside
# cmd/ and perfbench/, e.g. "internal/stats.(*Tally).Add 100.0%".
module="$(go list -m)"
go tool covdata func -i="$GOCOVERDIR" |
	awk -v mod="$module/" '
		$1 == "total" { next }
		{
			file = $1; sub(/:[0-9]+:$/, "", file); sub("^" mod, "", file)
			if (file ~ /^(cmd|perfbench)\//) next
			dir = file; sub(/\/[^\/]*$/, "", dir)
			print dir "." $2, $3
		}' | sort -u >"$work/funcs"

# Allowlist: "<package dir>.<func>  <reason>"; blank lines and # comments
# are skipped.
awk 'NF && $1 !~ /^#/ {
	if (NF < 2) { print "contractcov: allowlist entry without a reason: " $1 > "/dev/stderr"; bad = 1 }
	print $1
} END { exit bad }' "$allow" | sort >"$work/allowed"

awk '$2 == "0.0%" { print $1 }' "$work/funcs" | sort -u >"$work/unreached"
cut -d' ' -f1 "$work/funcs" | sort -u >"$work/all"
comm -23 "$work/all" "$work/unreached" >"$work/hit"

unlisted="$(comm -23 "$work/unreached" "$work/allowed")"
stale="$(comm -23 "$work/allowed" "$work/all")"
reached="$(comm -12 "$work/allowed" "$work/hit")"

echo
echo "functions outside cmd/ and perfbench/: $(wc -l <"$work/all") total," \
	"$(wc -l <"$work/unreached") unreached, $(wc -l <"$work/allowed") allowlisted"
if [ -n "$reached" ]; then
	echo
	echo "allowlisted but reached on this run (a racy smoke step may reach them):"
	sed 's/^/  /' <<<"$reached"
fi
status=0
if [ -n "$unlisted" ]; then
	echo
	echo "unreached by the contract and not in tools/contractcov.allow:"
	sed 's/^/  /' <<<"$unlisted"
	status=1
fi
if [ -n "$stale" ]; then
	echo
	echo "stale tools/contractcov.allow entries (no such function):"
	sed 's/^/  /' <<<"$stale"
	status=1
fi
exit $status
