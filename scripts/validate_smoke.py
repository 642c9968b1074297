#!/usr/bin/env python3
"""Validates the artifacts of the CLI smoke runs (stdlib only).

Each subcommand checks one stream that `mcs_cli` wrote and exits non-zero
with the failing record on the first broken invariant:

  stats FILE --shards N           mcs.serve_stats.v1 snapshot stream
  econ FILE --shards N --rounds N mcs.serve_econ.v1 snapshot stream
  econ-events FILE                econ violation event log (must be clean)
  arena FILE                      mcs.arena.v1 leaderboard document
  trace JSONL CHROME --shards N   mcs.trace.v1 stream + its Chrome export

Usage: python3 scripts/validate_smoke.py <subcommand> [args...]
"""

import argparse
import json
import sys


def jsonl(path):
    with open(path) as stream:
        return [json.loads(line) for line in stream]


def check_stats(args):
    # Every line must parse as mcs.serve_stats.v1 with monotone window
    # indices and internally consistent per-shard sums.
    windows = []
    for snap in jsonl(args.file):
        assert snap["schema"] == "mcs.serve_stats.v1", snap
        assert snap["state"] in {"healthy", "saturated", "shedding",
                                 "stalled", "degraded-economics"}, snap
        shards = snap["shards"]
        assert len(shards) == args.shards, snap
        assert snap["processed"] == sum(s["processed"] for s in shards), snap
        windows.append(snap["window"])
    assert windows, "no snapshots emitted"
    assert windows == sorted(set(windows)), windows
    print(f"{len(windows)} snapshots, windows {windows[0]}..{windows[-1]}")


def check_econ(args):
    # Every line must parse as mcs.serve_econ.v1 with monotone window
    # indices; truthful traffic must produce zero violations, a healthy
    # econ state, and full audit coverage of the served rounds.
    windows, last = [], None
    for snap in jsonl(args.file):
        assert snap["schema"] == "mcs.serve_econ.v1", snap
        assert snap["econ_state"] in {"healthy", "degraded-economics"}, snap
        assert len(snap["shards"]) == args.shards, snap
        windows.append(snap["window"])
        last = snap
    assert windows, "no econ snapshots emitted"
    assert windows == sorted(set(windows)), windows
    cum = last["cumulative"]
    assert last["econ_state"] == "healthy", last
    assert cum["violations"] == 0, cum
    assert cum["rounds"] + cum["rounds_skipped"] == args.rounds, cum
    assert cum["probe_rounds"] > 0, cum
    float(cum["payment"])  # exact decimal Money string
    print(f"{len(windows)} econ snapshots, {cum['rounds']} rounds "
          f"audited, {cum['probe_rounds']} deep-probed, 0 violations")


def check_econ_events(args):
    # The violation event log must carry only its schema header.
    records = jsonl(args.file)
    assert records[0]["type"] == "log_header", records[:1]
    bad = [r for r in records[1:] if r["type"] == "econ_violation"]
    assert not bad, bad
    print(f"{len(records)} event records, no econ_violation")


def check_arena(args):
    # The paper's Table-II story, checked mechanically: truthful mechanisms
    # keep every sampled incentive-to-deviate at <= one micro, while the
    # second-price baseline leaks strictly positive gains under cost
    # shading (and its Fig. 5 arrival-delay attack).
    with open(args.file) as stream:
        doc = json.load(stream)
    assert doc["schema"] == "mcs.arena.v1", doc["schema"]
    cells = doc["cells"]
    assert len(cells) == 9, len(cells)
    truthful = {"online-greedy", "offline-vcg"}
    micro = 1e-6
    leaks = []
    for cell in cells:
        assert cell["rounds"] == 200, cell
        assert cell["vcg_payment"] == doc["vcg_reference_payment"]
        assert cell["payment_vs_vcg"] > 0, cell
        assert 0 < cell["coverage"] <= 1, cell
        assert 0 < cell["mean_fairness"] <= 1, cell
        for policy in cell["policies"]:
            assert policy["probes"] > 0, (cell["mechanism"], policy)
            gain = float(policy["max_deviation_gain"])
            if cell["mechanism"] in truthful:
                assert gain <= micro, (cell["mechanism"], cell["mix"],
                                       policy["policy"], gain)
            elif gain > micro:
                leaks.append((cell["mix"], policy["policy"], gain))
    # The baseline must leak: the truthful population's prospective probes
    # (shade(1.5)/delay(2)) and the shaded mix's realized gains are both
    # strictly positive.
    assert any(p == "truthful" for _, p, _ in leaks), leaks
    assert any(p == "shade(1.5)" for _, p, _ in leaks), leaks
    print(f"9 cells validated; second-price leaked "
          f"{len(leaks)} (mix, policy) entries as it must")


def check_trace(args):
    # Tail-sampling invariants: monotone span timestamps, a terminal
    # round_close span on every retained completed trace, every
    # threshold-breaching and econ-violating round in the retained set,
    # non-completed traces retained as errors.
    header, summary, traces = None, None, []
    for rec in jsonl(args.jsonl):
        if header is None:
            assert rec["schema"] == "mcs.trace.v1", rec
            header = rec
            continue
        if rec["type"] == "trace":
            traces.append(rec)
        elif rec["type"] == "summary":
            summary = rec
    assert header and summary, "stream is missing header or summary"
    threshold = header["slow_threshold_ns"]
    reasons = {"slow", "econ_violation", "error"}
    for t in traces:
        assert t["retained"] and set(t["retained"]) <= reasons, t
        starts = [s["start_ns"] for s in t["spans"]]
        assert starts == sorted(starts), t
        assert all(s["end_ns"] >= s["start_ns"] for s in t["spans"]), t
        if t["status"] == "completed":
            assert t["spans"][-1]["phase"] == "round_close", t
            if t["latency_ns"] >= threshold:
                assert "slow" in t["retained"], t
        else:
            assert "error" in t["retained"], t
        if t["violations"] > 0:
            assert "econ_violation" in t["retained"], t
    assert len(traces) == summary["retained"] - summary["retained_evicted"]
    assert summary["rounds"] >= summary["completed"]
    with open(args.chrome) as stream:
        chrome = json.load(stream)
    lanes = [e for e in chrome["traceEvents"]
             if e.get("name") == "thread_name"]
    assert len(lanes) == 1 + args.shards, lanes  # producer + shard lanes
    print(f"{len(traces)} retained traces validated "
          f"({summary['rounds']} traced, {summary['dropped']} folded)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="mcs.serve_stats.v1 stream")
    stats.add_argument("file")
    stats.add_argument("--shards", type=int, required=True)
    stats.set_defaults(run=check_stats)

    econ = sub.add_parser("econ", help="mcs.serve_econ.v1 stream")
    econ.add_argument("file")
    econ.add_argument("--shards", type=int, required=True)
    econ.add_argument("--rounds", type=int, required=True)
    econ.set_defaults(run=check_econ)

    events = sub.add_parser("econ-events", help="econ violation event log")
    events.add_argument("file")
    events.set_defaults(run=check_econ_events)

    arena = sub.add_parser("arena", help="mcs.arena.v1 document")
    arena.add_argument("file")
    arena.set_defaults(run=check_arena)

    trace = sub.add_parser("trace", help="mcs.trace.v1 stream + Chrome")
    trace.add_argument("jsonl")
    trace.add_argument("chrome")
    trace.add_argument("--shards", type=int, required=True)
    trace.set_defaults(run=check_trace)

    args = parser.parse_args()
    args.run(args)


if __name__ == "__main__":
    sys.exit(main())
