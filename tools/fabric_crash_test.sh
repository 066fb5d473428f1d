#!/usr/bin/env bash
# Kill -9 crash-recovery test for the campaign fabric.
#
# Starts the campaign_fabric example with slow shards and a durable
# checkpoint, SIGKILLs it mid-campaign, damages the checkpoint tail the
# way a torn write would (truncation, then a byte of bit rot), and
# reruns with --resume --verify. The rerun's exit code asserts the
# resumed summary is bit-identical to an uninterrupted monolithic run;
# this script additionally asserts that the resume actually adopted
# durable shards instead of silently starting over, and that a second
# resume adopts all of them (the appended records read back).
#
# Usage: fabric_crash_test.sh <path-to-campaign_fabric-binary>
set -euo pipefail

BIN=${1:?usage: fabric_crash_test.sh <path-to-campaign_fabric-binary>}
WORKDIR=$(mktemp -d)
CKPT="$WORKDIR/fabric.ckpt"
trap 'rm -rf "$WORKDIR"' EXIT

FLAGS=(--runs 48 --shard-size 4 --workers 2 --checkpoint "$CKPT")

echo "== phase 1: start campaign, kill -9 mid-flight =="
"$BIN" "${FLAGS[@]}" --shard-ms 150 &
PID=$!

# The coordinator writes the 24-byte checkpoint header as the workers
# start, so a file larger than the header is the sign that at least one
# shard is durable. Wait for it, then let a few more land.
HEADER_BYTES=24
ckpt_bytes() { stat -c %s "$CKPT" 2>/dev/null || echo 0; }
for _ in $(seq 1 100); do
  [ "$(ckpt_bytes)" -gt "$HEADER_BYTES" ] && break
  sleep 0.1
done
if ! [ "$(ckpt_bytes)" -gt "$HEADER_BYTES" ]; then
  echo "FAIL: no durable shard appeared before timeout"
  kill -9 "$PID" 2>/dev/null || true
  exit 1
fi
sleep 0.5
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
SIZE=$(stat -c %s "$CKPT")
echo "killed coordinator; checkpoint holds $SIZE bytes"

echo "== phase 2: tear the checkpoint tail (torn-write model) =="
truncate -s $((SIZE > 3 ? SIZE - 3 : 0)) "$CKPT"

echo "== phase 3: resume and verify bit-identity =="
OUT=$("$BIN" "${FLAGS[@]}" --resume --verify)
echo "$OUT"
if ! echo "$OUT" | grep -Eq "resumed shards: [1-9]"; then
  echo "FAIL: resume adopted no durable shards"
  exit 1
fi

echo "== phase 4: resume the completed campaign, adopt every shard =="
# Phase 3's first write compacted the torn file; every later shard was
# appended to it. All 12 records must read back whole.
OUT=$("$BIN" "${FLAGS[@]}" --resume --verify)
echo "$OUT"
if ! echo "$OUT" | grep -qx "resumed shards: 12"; then
  echo "FAIL: records appended after the compaction did not read back"
  exit 1
fi

echo "== phase 5: corrupt one checkpoint byte, resume again =="
# Offset 40 sits inside the first record's payload; the CRC must drop
# that record (and everything after it) and the rerun must still verify.
printf '\xff' | dd of="$CKPT" bs=1 seek=40 conv=notrunc status=none
"$BIN" "${FLAGS[@]}" --resume --verify >/dev/null

echo "fabric crash test passed"
