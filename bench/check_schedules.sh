#!/usr/bin/env sh
# Schedule gate: the figure benches must reproduce pinned bytes. Each of
# fig3-fig9 runs at --iters=5 --warmup=1 under three configurations -- the
# paper's shared instance (default), four scalable endpoints
# (--endpoints=4), and four endpoints over four-ring NIC rails
# (--endpoints=4 --rx-queues=4) -- and the cksum of its stdout, CSV,
# metrics report and Chrome-trace JSON must match bench/schedule_pins.txt.
# The endpoints=4 rows also pin the PIOMan-hook (fig6), poll-thread (fig8)
# and offload (fig9) progression passes over several endpoints.
#
# A pin fixes the schedule, not the instrument list: counter lines that
# read zero are dropped from the metrics report before hashing, so
# registering a new instrument is not a schedule change, while any count
# that moves still moves the hash.
#
# A change that moves a schedule on purpose recaptures the pins with
#   bench/check_schedules.sh build --print > bench/schedule_pins.txt
# and says why in its change log.
#
# Usage: bench/check_schedules.sh [build-dir] [--print]   (default: ./build)
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
mode=${2:-check}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

for bench in fig3_locking fig5_concurrent fig6_pioman fig7_waiting \
             fig8_affinity fig9_offload; do
  for config in default ep4 ep4-rxq4; do
    case $config in
      default) flags= ;;
      ep4) flags=--endpoints=4 ;;
      ep4-rxq4) flags="--endpoints=4 --rx-queues=4" ;;
    esac
    d="$tmp/$bench-$config"
    mkdir -p "$d"
    # Relative output names: the benches echo them to stdout.
    # shellcheck disable=SC2086
    (cd "$d" && "$build_dir"/bench/"$bench" --iters=5 --warmup=1 $flags \
        --csv=out.csv --metrics-out=m.json > out.txt)
    sed -e '/^{"component":.*"value":0},\{0,1\}$/d' -e 's/,$//' \
        "$d/m.json" > "$d/m.pinned.json"
    for f in out.txt out.csv m.pinned.json m.json.trace.json; do
      echo "$bench $config $f $(cksum < "$d/$f")"
    done
  done
done > "$tmp/actual"

if [ "$mode" = "--print" ]; then
  cat "$tmp/actual"
  exit 0
fi
diff -u "$repo_root/bench/schedule_pins.txt" "$tmp/actual" || {
  echo "check_schedules: figure outputs differ from bench/schedule_pins.txt" >&2
  exit 1
}
echo "check_schedules: fig3-fig9 byte-identical to the pinned schedules"
