#!/bin/sh
# Lockstep golden for aar_node's mining hub (docs/NODE.md).
#
# Serves with a mining window small enough to evict (--window 256), drives
# it with `aar_node replay --lockstep 1`, and compares two captures with
# tests/data/golden_node_lockstep.v1:
#   * `admin rules` once every pair is merged, while the replay's
#     connections are still open (closing them purges every rule);
#   * `admin stats` after the replay disconnected and the daemon settled.
# node.admin_requests is dropped from the stats: it counts this script's
# own polling.  The golden is --threads invariant, so every thread count
# compares against the same file.
#
# usage: node_lockstep_golden.sh AAR_NODE GOLDEN THREADS [--update]
set -eu

NODE=$1
GOLDEN=$2
THREADS=$3
MODE=${4:-check}
PAIRS=800
REBUILD=16

WORK=$(mktemp -d)
SERVE=
cleanup() {
  [ -n "$SERVE" ] && kill "$SERVE" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# poll CMD...: retry CMD every 20 ms for up to 30 s.
poll() {
  tries=0
  until "$@"; do
    tries=$((tries + 1))
    [ "$tries" -lt 1500 ] || fail "timed out waiting for: $*"
    sleep 0.02
  done
}

admin() { "$NODE" admin --port "$ADMIN" --command "$1"; }
stats() { admin stats | grep -v '^node\.admin_requests '; }
has_stat() { stats | grep -qx "$1"; }

"$NODE" serve --port 0 --admin-port 0 --threads "$THREADS" --window 256 \
  --rebuild-every "$REBUILD" --min-support 2 --seed 7 \
  > "$WORK/serve.log" 2>&1 &
SERVE=$!
poll grep -q '^admin ' "$WORK/serve.log"
PORT=$(awk '/^listening /{print $2}' "$WORK/serve.log")
ADMIN=$(awk '/^admin /{print $2}' "$WORK/serve.log")

# The long drain keeps the replay's connections open while the rules are
# read; the lockstep replay itself takes well under a second.
"$NODE" replay --port "$PORT" --pairs "$PAIRS" --connections 4 --hosts 16 \
  --hit-lag 8 --seed 3 --lockstep 1 --drain-ms 3000 > "$WORK/replay.txt" &
REPLAY=$!

poll has_stat "node.pairs_mined $PAIRS"
poll has_stat "node.snapshots $((PAIRS / REBUILD))"
admin rules > "$WORK/rules.txt"
has_stat "node.disconnects 0" ||
  fail "rules read after the replay disconnected; raise --drain-ms"

wait "$REPLAY" || fail "replay exited non-zero"
grep -qx 'replay.lockstep_timeouts 0' "$WORK/replay.txt" ||
  fail "lockstep replay timed out"

# Disconnect purges land asynchronously: wait for three equal reads.
poll has_stat "node.connections 0"
previous=
same=0
while [ "$same" -lt 3 ]; do
  current=$(stats)
  if [ "$current" = "$previous" ]; then
    same=$((same + 1))
  else
    same=0
    previous=$current
  fi
  sleep 0.05
done

admin shutdown > /dev/null
wait "$SERVE" || fail "serve exited non-zero"
SERVE=

{
  echo '[rules]'
  cat "$WORK/rules.txt"
  echo '[stats]'
  printf '%s\n' "$previous"
} > "$WORK/actual.txt"

if [ "$MODE" = "--update" ]; then
  {
    echo 'aar.node-lockstep.v1'
    echo '# Golden for tests/node_lockstep_golden.sh: aar_node serve --window 256'
    echo '# --rebuild-every 16 --min-support 2 --seed 7, driven by aar_node replay'
    echo '# --pairs 800 --connections 4 --hosts 16 --hit-lag 8 --seed 3'
    echo '# --lockstep 1.  Identical for every --threads value.'
    cat "$WORK/actual.txt"
  } > "$GOLDEN"
  echo "wrote $GOLDEN"
  exit 0
fi

sed '1d;/^#/d' "$GOLDEN" > "$WORK/expected.txt"
if ! diff -u "$WORK/expected.txt" "$WORK/actual.txt"; then
  fail "threads=$THREADS differs from $GOLDEN"
fi
echo "ok threads=$THREADS matches $GOLDEN"
