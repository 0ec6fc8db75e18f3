#!/usr/bin/env python3
"""Builds and runs bench_layers, the repository benchmark (see README.md).

  python3 bench_layers/run.py --workload NAME --seed S [--seconds N] [--trace 0|1]
      One run. Builds the library and bench_layers from this checkout into
      .bench_build (or $CARGO_TARGET_DIR), runs one workload, and prints a
      provenance line, a metric table and, as the last line, one JSON object
      {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
      end_to_end metrics of BENCHMARK.json, --trace 1 the per_layer metrics
      and writes a Chrome trace next to the build.
  python3 bench_layers/run.py --ledger FILE [--runs 5] [--seconds N]
      Runs every workload --runs times untraced, with seeds 1..runs, and
      writes the end-to-end values with their provenance to FILE.
  python3 bench_layers/run.py --ab PARENT [--runs 10] [--seconds N] [--out DIR]
      Builds this benchmark twice, against PARENT/src and against this
      checkout's src, and runs --runs pairs per workload, alternating which
      side runs first. Writes DIR/parent.json and DIR/change.json (DIR
      defaults to .bench_build/ab) and compares them as --compare does.
  python3 bench_layers/run.py --compare OLD NEW
      Compares two ledgers under BENCHMARK.json's bounds and prints one row
      per (workload, metric). Exits 1 if any row is worse.
  python3 bench_layers/run.py --smoke [--binary PATH]
      Every workload for a moment, untraced and traced: checks failed == 0,
      the 1/2-thread determinism check, the traced replay, and that the
      metric names and units are exactly BENCHMARK.json's.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Pairs a gain needs under the pairing rule.
MIN_PAIRS = 10


def fail(message, code=1):
    print(f"bench_layers: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} is missing", 2)
    return json.loads(path.read_text())


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def run_quiet(cmd, timeout):
    """Runs a build step; its output goes to stderr only when it fails."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        fail(f"failed: {' '.join(map(str, cmd))}")


def build(src=ROOT / "src", out=None):
    """Builds bench_layers against the library sources in `src` into `out`
    (a no-op when up to date); returns the binary."""
    if not (src / "CMakeLists.txt").is_file():
        fail(f"no library sources under {src}", 2)
    out = out or build_dir()
    cache = out / "CMakeCache.txt"
    if not cache.is_file() or f"RSTP_SOURCE_DIR:PATH={src}\n" not in cache.read_text():
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
               f"-DRSTP_SOURCE_DIR={src}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out, "--target", "bench_layers", "-j", jobs], BUILD_TIMEOUT_S)
    return out / "bench_layers"


def git_sha(root=ROOT):
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_binary(binary, args):
    """Runs bench_layers; returns (exit code, parsed report or None)."""
    try:
        done = subprocess.run([binary, *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_layers {' '.join(args)} timed out after {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        report = None
    return done.returncode, report


def verdict(code, report):
    return (code == 0 and report["failed"] == 0 and report["deterministic"]
            and report["replay_equal"] is not False)


def metric_defs(bench, traced):
    return bench["per_layer"] if traced else bench["end_to_end"]


def one_run(args):
    bench = load_benchmark()
    binary = build()
    traced = args.trace == 1
    cmd = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    trace_path = build_dir() / f"trace-{args.workload}.json"
    if traced:
        cmd += ["--traced", "--trace-out", str(trace_path)]
    code, report = run_binary(binary, cmd)
    if report is None:
        fail(f"{args.workload}: no report (exit {code})")

    metrics = {}
    for d in metric_defs(bench, traced):
        got = report["metrics"].get(d["name"])
        if got is None or got["unit"] != d["unit"]:
            fail(f"{args.workload}: metric {d['name']} [{d['unit']}] missing from the report")
        metrics[d["name"]] = {"value": got["value"], "unit": got["unit"]}

    p = report["provenance"]
    print(f"# bench_layers {args.workload} seed={p['seed']} sha={git_sha()} "
          f"compiler='{p['compiler']}' build={p['build_type']} "
          f"hw_threads={p['hardware_threads']} clock={p['clock_source']} "
          f"reps={report['repetitions']}")
    for name, m in metrics.items():
        print(f"#   {name:44s} {m['value']:>16.6g} {m['unit']}")
    if traced:
        print(f"# chrome trace: {trace_path} ({report['spans']} spans, "
              f"{report['dropped_spans']} past the cap)")
    correct = verdict(code, report)
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


def new_ledger(sha, seconds):
    return {"schema": "rstp-bench-ledger-v1", "git_sha": sha, "provenance": None,
            "run_seconds": seconds, "workloads": {}}


def record_run(doc, binary, bench, workload, seed, seconds, label=""):
    """Runs one untraced workload and appends its end-to-end values to `doc`."""
    code, report = run_binary(binary, ["--workload", workload, "--seed", str(seed),
                                       "--seconds", str(seconds)])
    if report is None or not verdict(code, report):
        fail(f"{label}{workload} seed {seed} failed")
    prov = dict(report["provenance"])
    del prov["seed"]
    doc["provenance"] = doc["provenance"] or prov
    row = {"seed": seed, "reps": report["repetitions"],
           "metrics": {d["name"]: report["metrics"][d["name"]]["value"]
                       for d in bench["end_to_end"]}}
    doc["workloads"].setdefault(workload, []).append(row)
    print(f"{label}{workload} seed {seed}: " + ", ".join(
        f"{k}={v:.6g}" for k, v in row["metrics"].items()), flush=True)


def ledger(args):
    bench = load_benchmark()
    binary = build()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    doc = new_ledger(git_sha(), seconds)
    for w in bench["workloads"]:
        for seed in range(1, (args.runs or 5) + 1):
            record_run(doc, binary, bench, w["name"], seed, seconds)
    Path(args.ledger).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def ab(args):
    """Interleaved pairs: the same benchmark code built against the parent's
    library and against this checkout's, so only the library differs."""
    bench = load_benchmark()
    parent_root = Path(args.ab).resolve()
    change = build()
    parent = build(parent_root / "src", build_dir() / "ab-parent")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    docs = {"parent": new_ledger(git_sha(parent_root), seconds),
            "change": new_ledger(git_sha(), seconds)}
    binaries = {"parent": parent, "change": change}
    for w in bench["workloads"]:
        for seed in range(1, (args.runs or MIN_PAIRS) + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                record_run(docs[side], binaries[side], bench, w["name"], seed, seconds,
                           f"{side:6s} ")
    out = Path(args.out) if args.out else build_dir() / "ab"
    out.mkdir(parents=True, exist_ok=True)
    for side, doc in docs.items():
        (out / f"{side}.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"ledgers: {out / 'parent.json'} {out / 'change.json'}")
    return compare_docs(bench, docs["parent"], docs["change"])


def classify(old, new, better, bound):
    """One (workload, metric) verdict under the pairing rule. Run i of `old`
    pairs with run i of `new`.

    unresolved: the parent's own spread (IQR over median) is wider than the
                bound, and the runs do not all separate: neither does every
                change run read better than every parent run, nor every one
                worse;
    improved:   at least MIN_PAIRS pairs, the change wins at least 9/10 of
                them (ties count for neither), and the medians differ in its
                favour by more than the parent's IQR;
    worse:      the change's median is worse than the parent's by more than
                the bound;
    unchanged:  otherwise.
    """
    sign = 1 if better == "lower" else -1  # sign * value: lower is better
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) < 0)
    med_old = statistics.median(old)
    med_new = statistics.median(new)
    q = statistics.quantiles(old, n=4) if len(old) > 1 else [med_old, med_old, med_old]
    iqr = q[2] - q[0]
    scale = abs(med_old) or 1.0
    spread = iqr / scale
    worse_by = sign * (med_new - med_old) / scale
    all_better = max(sign * v for v in new) < min(sign * v for v in old)
    all_worse = min(sign * v for v in new) > max(sign * v for v in old)
    if spread > bound and not (all_better or all_worse):
        result = "unresolved"
    elif len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and -worse_by * scale > iqr:
        result = "improved"
    elif worse_by > bound:
        result = "worse"
    else:
        result = "unchanged"
    return result, wins, len(pairs), worse_by, spread


def compare(args):
    bench = load_benchmark()
    old_doc = json.loads(Path(args.compare[0]).read_text())
    new_doc = json.loads(Path(args.compare[1]).read_text())
    return compare_docs(bench, old_doc, new_doc)


def compare_docs(bench, old_doc, new_doc):
    print(f"old {old_doc['git_sha']}  new {new_doc['git_sha']}")
    print(f"{'workload':16s} {'metric':22s} {'old median':>14s} {'new median':>14s} "
          f"{'worse by':>9s} {'old IQR':>8s} {'wins':>6s} {'bound':>6s}  verdict")
    worse = 0
    for w in bench["workloads"]:
        old_runs = old_doc["workloads"].get(w["name"])
        new_runs = new_doc["workloads"].get(w["name"])
        if not old_runs or not new_runs:
            print(f"{w['name']:16s} missing from a ledger")
            worse += 1
            continue
        for d in bench["end_to_end"]:
            old = [r["metrics"][d["name"]] for r in old_runs]
            new = [r["metrics"][d["name"]] for r in new_runs]
            result, wins, n, worse_by, spread = classify(old, new, d["better"], d["bound"])
            worse += result == "worse"
            print(f"{w['name']:16s} {d['name']:22s} {statistics.median(old):14.6g} "
                  f"{statistics.median(new):14.6g} {worse_by:+9.2%} {spread:8.2%} "
                  f"{wins:>3d}/{n:<2d} {d['bound']:6.0%}  {result}")
    return 1 if worse else 0


def smoke(args):
    bench = load_benchmark()
    binary = Path(args.binary) if args.binary else build()
    names = [w["name"] for w in bench["workloads"]]
    problems = []
    for name in names:
        for traced in (False, True):
            cmd = ["--workload", name, "--seed", "7", "--seconds", "0.01"]
            if traced:
                cmd.append("--traced")
            code, report = run_binary(binary, cmd)
            label = f"{name}{' traced' if traced else ''}"
            if report is None:
                problems.append(f"{label}: no report (exit {code})")
                continue
            if report["failed"] != 0:
                problems.append(f"{label}: {report['failed']} of {report['attempted']} failed")
            if not report["deterministic"]:
                problems.append(f"{label}: 1- and 2-thread results differ")
            if traced and report["replay_equal"] is not True:
                problems.append(f"{label}: traced replay differs from the untraced run")
            want = [(d["name"], d["unit"]) for d in metric_defs(bench, traced)]
            got = [(k, v["unit"]) for k, v in report["metrics"].items()]
            if want != got:
                problems.append(f"{label}: metrics {got} differ from BENCHMARK.json {want}")
            if code != 0:
                problems.append(f"{label}: exit {code}")
    for p in problems:
        print(f"FAIL {p}")
    print(f"smoke: {len(names)} workloads, {'ok' if not problems else 'FAILED'}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ledger", metavar="FILE")
    parser.add_argument("--ab", metavar="PARENT", help="a checkout of the parent commit")
    parser.add_argument("--out", metavar="DIR", help="with --ab: where the two ledgers go")
    parser.add_argument("--runs", type=int, help="runs per workload (--ledger 5, --ab 10)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="with --smoke: an already built bench_layers")
    args = parser.parse_args()
    if args.seconds is not None and not 0 < args.seconds <= 3600:
        parser.error("--seconds must be in (0, 3600]")
    if args.runs is not None and args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.compare:
        return compare(args)
    if args.smoke:
        return smoke(args)
    if args.ab:
        return ab(args)
    if args.ledger:
        return ledger(args)
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
