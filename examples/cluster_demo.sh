#!/usr/bin/env bash
#
# Sharded-cluster demo: two jitschedd backends behind one
# jitsched-router, all on ephemeral loopback ports.  Shows the three
# things the cluster layer is for:
#
#   1. transparency — the same wire protocol in front: jitsched-cli
#      talks to the router exactly as it would to a single daemon;
#   2. cache affinity — a repeated request is routed to the backend
#      that already solved it, whose result cache replays it (watch
#      the stats line's `result-cache 1`);
#   3. fault tolerance — kill a backend mid-demo and requests keep
#      being answered by the survivor.
#
#   examples/cluster_demo.sh [build-dir]     # default: build
#
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
jitschedd="$build_dir/bin/jitschedd"
router="$build_dir/bin/jitsched-router"
cli="$build_dir/bin/jitsched-cli"
for bin in "$jitschedd" "$router" "$cli"; do
    if [ ! -x "$bin" ]; then
        echo "missing $bin — build first: cmake --build $build_dir" >&2
        exit 1
    fi
done

workdir="$(mktemp -d)"
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

# The Fig. 2 instance: three functions, calls f0 f1 f2 f1 f2
# (trace/paper_examples.hh).
cat > "$workdir/workload" <<'EOF'
# jitsched workload trace
workload paper-fig2
levels 2
func 0 f0 1 1 1 1 1
func 1 f1 1 1 3 3 2
func 2 f2 1 3 3 5 1
calls 5
0 1 2 1 2
EOF

scrape_port() { # logfile binary-name
    local port="" i
    for i in $(seq 1 50); do
        port="$(sed -n "s/^$2 listening on .*:\([0-9]*\)$/\1/p" "$1")"
        [ -n "$port" ] && break
        sleep 0.1
    done
    if [ -z "$port" ]; then
        echo "$2 did not come up:" >&2
        cat "$1" >&2
        exit 1
    fi
    echo "$port"
}

"$jitschedd" --port 0 --result-cache-mb 16 > "$workdir/a.log" &
pids+=($!)
backend_a_pid=$!
"$jitschedd" --port 0 --result-cache-mb 16 > "$workdir/b.log" &
pids+=($!)
port_a="$(scrape_port "$workdir/a.log" jitschedd)"
port_b="$(scrape_port "$workdir/b.log" jitschedd)"
echo "backends up on 127.0.0.1:$port_a and 127.0.0.1:$port_b"

"$router" --port 0 --backend "127.0.0.1:$port_a" \
    --backend "127.0.0.1:$port_b" > "$workdir/router.log" &
pids+=($!)
port_r="$(scrape_port "$workdir/router.log" jitsched-router)"
echo "router up on 127.0.0.1:$port_r"
echo

echo "== 1. a request through the router (same protocol as a daemon) =="
"$cli" --port "$port_r" --policy iar --id 1 "$workdir/workload"
echo

echo "== 2. the identical request again: affinity routes it to the"
echo "==    same backend, whose result cache now answers (stats line) =="
"$cli" --port "$port_r" --policy iar --id 2 "$workdir/workload"
echo

echo "== 3. kill backend A mid-run; the survivor keeps answering =="
kill "$backend_a_pid" 2>/dev/null || true
wait "$backend_a_pid" 2>/dev/null || true
"$cli" --port "$port_r" --policy iar --id 3 "$workdir/workload"
echo

echo "== router health, as the router's own STATS scrape sees it =="
"$cli" --port "$port_r" stats | grep -E \
    "cluster\.(frames\.served|requests\.(routed|spilled|retried)|backend\.(ejections|readmissions)|probes\.sent)" \
    || true
echo
echo "Responses 1-3 are byte-identical above the stats line: the"
echo "cluster is invisible to clients, failures included."
