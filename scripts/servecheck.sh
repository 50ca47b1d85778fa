#!/bin/sh
# servecheck: end-to-end smoke test of the mpicollperfd daemon and the
# mpicollperf serve client. Boots the daemon on an ephemeral port,
# drives a full calibration cycle (submit → poll → select, broadcast
# plus one extended collective), verifies that cancelling a full-scale
# job is observed promptly, and checks that SIGTERM drains to a clean
# exit.
set -eu

GO=${GO:-go}
TMP=$(mktemp -d)
DPID=""
cleanup() {
    [ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

$GO build -o "$TMP/mpicollperfd" ./cmd/mpicollperfd
$GO build -o "$TMP/mpicollperf" ./cmd/mpicollperf

"$TMP/mpicollperfd" -addr 127.0.0.1:0 -addr-file "$TMP/addr" \
    -store "$TMP/store" -workers 1 &
DPID=$!

i=0
while [ ! -s "$TMP/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "servecheck: daemon never published its address" >&2
        exit 1
    fi
    sleep 0.1
done
URL="http://$(cat "$TMP/addr")"
echo "servecheck: daemon at $URL"

# Full cycle: a quick 16-node calibration including one extended
# collective family, then selection queries against the result.
ID=$("$TMP/mpicollperf" serve submit -server "$URL" -profile grisou \
    -nodes 16 -procs 8 -sizes 8192,65536,524288 -ops gather -fast -id-only)
echo "servecheck: submitted $ID"
# The job is one sweep, so the finished job reports that sweep's
# progress=N/N with N > 0.
LINE=$("$TMP/mpicollperf" serve wait -server "$URL" -id "$ID" -timeout 2m)
echo "$LINE"
if ! echo "$LINE" | grep -Eq ' progress=([1-9][0-9]*)/\1( |$)'; then
    echo "servecheck: finished job did not report progress=N/N with N > 0" >&2
    exit 1
fi
"$TMP/mpicollperf" serve select -server "$URL" -profile grisou -p 16 -m 1048576
"$TMP/mpicollperf" serve select -server "$URL" -profile grisou -op gather -p 16 -m 8192

# Cancellation: a full-scale gros calibration takes far longer than the
# quick one; cancelling right after submit stops its sweep after each
# worker's current point, long before the sweep could finish.
ID2=$("$TMP/mpicollperf" serve submit -server "$URL" -profile gros -procs 64 -id-only)
echo "servecheck: submitted $ID2 (full scale), cancelling"
"$TMP/mpicollperf" serve cancel -server "$URL" -id "$ID2" > /dev/null
"$TMP/mpicollperf" serve wait -server "$URL" -id "$ID2" -want cancelled -timeout 60s
"$TMP/mpicollperf" serve list -server "$URL"

# Graceful shutdown: SIGTERM must drain to exit code 0.
kill -TERM "$DPID"
if wait "$DPID"; then
    DPID=""
else
    echo "servecheck: daemon exited non-zero after SIGTERM" >&2
    DPID=""
    exit 1
fi

echo "servecheck: OK"
