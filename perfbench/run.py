#!/usr/bin/env python3
"""Served-path benchmark for the blitz optimizer server.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload zipf-warm --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py compare PARENT CHANGE
  python3 perfbench/run.py selfcheck

A run builds `blitz` and the benchmark driver from source (dune, release
profile, build directory perfbench/_build), starts `blitz serve` as a
child process, drives it over one connection in a closed loop, checks
every answer, and prints every metric by name and unit.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  Each run also appends
its result and provenance to perfbench/out/results.jsonl.

`compare` reads two such result files (or directories holding one), a
parent's and a change's, and prints a verdict per workload and
end-to-end metric against the bounds in BENCHMARK.json.  `selfcheck`
runs the checker self-test and a one-second run of every workload in
both modes, and asserts that every metric is printed with its unit.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD_DIR = "perfbench/_build"
OUT = HERE / "out"
SERVED = ROOT / BUILD_DIR / "default" / "perfbench" / "served.exe"
BLITZ = ROOT / BUILD_DIR / "default" / "bin" / "blitz.exe"
SOURCES = ["dune-project", "bin/blitz.ml", "lib/serve/server.ml", "perfbench/dune", "perfbench/served.ml"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_LIMIT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune is not on PATH")


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group with stdout captured; on timeout
    kill the whole group (the driver's blitz servers included) and
    return None."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return proc.returncode, out


def build():
    missing = [p for p in SOURCES if not (ROOT / p).is_file()]
    if missing:
        die("not a blitz source checkout (missing %s)" % ", ".join(missing))
    # No shared dune cache and no temporary files outside the checkout.
    tmp = ROOT / BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=str(tmp))
    cmd = dune_command() + [
        "build", "--root", ".", "--profile", "release", "--build-dir", str(ROOT / BUILD_DIR),
        "./bin/blitz.exe", "./perfbench/served.exe",
    ]
    done = run_group(cmd, 850, env=env, stderr=subprocess.STDOUT)
    if done is None:
        die("build timed out")
    if done[0] != 0:
        sys.stderr.write(done[1])
        die("build failed")


def capture(cmd):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    h = hashlib.sha256()
    for top in ["dune-project", "bin", "lib", "perfbench"]:
        base = ROOT / top
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for p in files:
            rel = p.relative_to(ROOT).as_posix()
            if p.is_file() and "/_build/" not in rel + "/" and not rel.startswith("perfbench/out/"):
                h.update(rel.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def provenance(args, server):
    rev = dirty = None
    if (ROOT / ".git").exists():
        rev = capture(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
        status = capture(["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"])
        dirty = None if status is None else status != ""
    config = capture(["ocamlfind", "ocamlopt", "-config"]) or capture(["ocamlopt", "-config"]) or ""
    conf = dict(line.split(": ", 1) for line in config.splitlines() if ": " in line)
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "source_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "ocaml_version": conf.get("version"),
        "flambda": conf.get("flambda") == "true",
        "server": server,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, spec, trace):
    """Problems with a result line, as a list of messages."""
    if set(result) != RESULT_KEYS:
        return ["result keys are %s" % sorted(result)]
    want = expected_metrics(spec, trace)
    got = result["metrics"]
    problems = ["missing metric %s" % n for n in want if n not in got]
    problems += ["unexpected metric %s" % n for n in got if n not in want]
    problems += ["metric %s has unit %s, expected %s" % (n, got[n].get("unit"), u)
                 for n, u in want.items() if n in got and got[n].get("unit") != u]
    return problems


def run_once(args, spec, deadline):
    """One benchmark run; returns (exit code, result or None, stdout lines)."""
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(SERVED), "run", "--blitz", str(BLITZ), "--out", str(OUT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = run_group(cmd, max(10, deadline - time.monotonic()))
    if done is None:
        die("run exceeded its time limit", 1)
    code, out = done
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return code, result, lines[:-1] if result is not None else lines


def main_run(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %s" % args.workload)
    build()
    code, result, lines = run_once(args, spec, time.monotonic() + RUN_LIMIT_S - 10)
    for line in lines:
        print(line)
    if result is None:
        die("the driver printed no result", 1)
    server = next((l[len("server: "):] for l in lines if l.startswith("server: ")), None)
    prov = provenance(args, server)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    if args.trace:
        layers = json.load(open(HERE / "layers.json"))["layers"]
        print("per-layer predictions (metric: layer -> end-to-end metric @ workload):")
        for name in expected_metrics(spec, True):
            entry = layers.get(name, {})
            print("  %-26s %-12s -> %s" % (name, entry.get("layer", "?"), entry.get("should_move", "-")))
    problems = validate(result, spec, args.trace)
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    with open(OUT / "results.jsonl", "a") as f:
        f.write(json.dumps({"provenance": prov, "result": result}, sort_keys=True) + "\n")
    print(json.dumps(result))
    sys.exit(code if code != 0 else (1 if problems or not result["correct"] else 0))


# ---- compare ----

def load_results(path):
    p = Path(path)
    if p.is_dir():
        p = p / "results.jsonl"
    records = []
    with open(p) as f:
        for line in f:
            if line.strip():
                records.append(json.loads(line))
    return [r for r in records if not r["provenance"]["trace"]]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, parent, change, pairs):
    """better / worse / unchanged / unresolved, following the bound rule."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    improves = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    wins = sum(1 for p, c in pairs if improves(c, p))
    all_better = all(improves(c, p) for c in change for p in parent)
    spread = (p3 - p1) / abs(pmed) if pmed else float("inf")
    worse_by = ((cmed - pmed) if lower else (pmed - cmed)) / abs(pmed) if pmed else 0.0
    if pairs and wins >= 0.9 * len(pairs) and improves(cmed, pmed) and abs(cmed - pmed) > (p3 - p1):
        return wins, "better"
    if spread > bound and not all_better:
        return wins, "unresolved"
    if worse_by > bound:
        return wins, "worse"
    return wins, "unchanged"


def main_compare(args):
    spec = load_spec()
    parent, change = load_results(args.parent), load_results(args.change)
    print("%-15s %-11s %12s %23s %12s %23s %6s  %s" % (
        "workload", "metric", "parent med", "parent q1..q3", "change med", "change q1..q3", "won", "verdict"))
    worst = 0
    for w in [w["name"] for w in spec["workloads"]]:
        ps = {r["provenance"]["seed"]: r for r in parent if r["provenance"]["workload"] == w}
        cs = {r["provenance"]["seed"]: r for r in change if r["provenance"]["workload"] == w}
        if not ps or not cs:
            print("%-15s (no runs on one side)" % w)
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in ps.values()]
            cv = [r["result"]["metrics"][name]["value"] for r in cs.values()]
            pairs = [(ps[s]["result"]["metrics"][name]["value"], cs[s]["result"]["metrics"][name]["value"])
                     for s in sorted(set(ps) & set(cs))]
            wins, v = verdict(m, pv, cv, pairs)
            p1, pmed, p3 = quartiles(pv)
            c1, cmed, c3 = quartiles(cv)
            print("%-15s %-11s %12.6g %11.5g..%-11.5g %12.6g %11.5g..%-11.5g %3d/%-2d  %s" % (
                w, name, pmed, p1, p3, cmed, c1, c3, wins, len(pairs), v))
            worst = max(worst, {"worse": 2, "unresolved": 1}.get(v, 0))
    sys.exit(1 if worst == 2 else 0)


# ---- selfcheck ----

def main_selfcheck(_args):
    spec = load_spec()
    build()
    layers = json.load(open(HERE / "layers.json"))["layers"]
    names = [m["name"] for m in spec["per_layer"]]
    failures = []
    if sorted(layers) != sorted(names):
        failures.append("layers.json does not cover exactly the per-layer metrics")
    OUT.mkdir(parents=True, exist_ok=True)
    done = run_group([str(SERVED), "selftest", "--blitz", str(BLITZ), "--out", str(OUT)], 120)
    if done is not None:
        sys.stdout.write(done[1])
    if done is None or done[0] != 0:
        failures.append("checker self-test failed")
    for w in spec["workloads"]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=w["name"], seed=1, seconds=1, trace=trace)
            code, result, _ = run_once(args, spec, time.monotonic() + RUN_LIMIT_S)
            problems = ["no result"] if result is None else validate(result, spec, trace)
            if code != 0:
                problems.append("exit code %d" % code)
            status = "ok" if not problems else "; ".join(problems)
            print("selfcheck %-15s trace=%d: %s" % (w["name"], trace, status))
            failures += problems
    print("selfcheck: " + ("ok" if not failures else "FAILED"))
    sys.exit(1 if failures else 0)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("parent")
        p.add_argument("change")
        return main_compare(p.parse_args(sys.argv[2:]))
    if len(sys.argv) > 1 and sys.argv[1] == "selfcheck":
        return main_selfcheck(None)
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    main_run(p.parse_args())


if __name__ == "__main__":
    main()
