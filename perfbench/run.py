#!/usr/bin/env python3
"""Build and run the repository benchmark, or compare two sets of results.

Run one workload (from the root of the repository):

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

The Go benchmark (perfbench/*.go) is built from the checkout's sources into
.bench_build/, with every Go cache and temporary directory kept under
.bench_build/ too. Each run also writes its full result record to
.bench_out/<workload>-seed<seed>-trace<0|1>.json.

Compare two result directories (for example the parent commit's .bench_out
and the change's), one row per workload and end-to-end metric:

    python3 perfbench/run.py compare BASE_DIR CHANGE_DIR

With a single directory, compare prints each metric's median and quartile
spread, the figure the benchmark's bounds apply to.
"""

import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# A run measures for at most 60 seconds plus its checks and replay; this
# cap ends a wedged run so the command still returns within 180 seconds.
RUN_TIMEOUT_S = 170


def revision():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    return env


def build():
    """Build the benchmark binary; returns False (after reporting) on failure."""
    if shutil.which("go") is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        print("perfbench: %s holds no go.mod; run from a checkout of the repository" % ROOT, file=sys.stderr)
        return False
    env = go_env()
    for d in ("GOCACHE", "GOPATH", "GOTMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[d], exist_ok=True)
    # Telemetry off, so the go command starts no background process.
    mode = os.path.join(env["XDG_CONFIG_HOME"], "go", "telemetry", "mode")
    if not os.path.exists(mode):
        subprocess.run(["go", "telemetry", "off"], cwd=HERE, env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    res = subprocess.run(["go", "build", "-buildvcs=false", "-o", BINARY, "."],
                         cwd=HERE, env=env, stdout=sys.stderr)
    return res.returncode == 0


def run(args):
    if not build():
        return 2
    cmd = [BINARY] + args + [
        "-expect", os.path.join(HERE, "expected.json"),
        "-out", os.path.join(ROOT, ".bench_out"),
        "-rev", revision(),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


def load(directory):
    """Untraced result records by workload, each list sorted by seed."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            rec = json.load(f)
        out.setdefault(rec["env"]["workload"], []).append(rec)
    for recs in out.values():
        recs.sort(key=lambda r: r["env"]["seed"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def env_key(rec):
    e = rec["env"]
    return (e["nproc"], e["gomaxprocs"], e["go_version"], e["goos"], e["goarch"], e["scale"])


def verdict(metric, base, change):
    """The choosing-metrics rule: improved, no worse, unresolved or worse."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    better = (lambda c, b: c < b) if lower else (lambda c, b: c > b)
    pairs = list(zip(base, change))
    won = sum(1 for b, c in pairs if better(c, b))
    if pairs and won >= 0.9 * len(pairs) and abs(cmed - bmed) > (bq3 - bq1):
        return "improved", won, len(pairs)
    if all(better(c, b) for c in change for b in base):
        return "no worse", won, len(pairs)
    if spread(base) > bound or spread(change) > bound:
        return "unresolved", won, len(pairs)
    worse_by = (cmed - bmed) / abs(bmed) if lower else (bmed - cmed) / abs(bmed)
    return ("no worse" if worse_by <= bound else "worse"), won, len(pairs)


def compare(dirs):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = [load(d) for d in dirs]
    envs = {env_key(r) for s in sets for recs in s.values() for r in recs}
    if len(envs) > 1:
        print("warning: results come from different environments: %s" % sorted(envs))
    failed = 0
    for wl in [w["name"] for w in bench["workloads"]]:
        recs = [s.get(wl, []) for s in sets]
        if not all(recs):
            print("%s: no results in %s" % (wl, " / ".join(d for d, r in zip(dirs, recs) if not r)))
            continue
        for r in recs:
            failed += sum(x["failed"] for x in r)
        for m in bench["end_to_end"]:
            vals = [[x["metrics"][m["name"]]["value"] for x in r] for r in recs]
            cols = []
            for v in vals:
                q1, med, q3 = quartiles(v)
                cols.append("median %.6g [%.6g, %.6g] spread %.3f (n=%d)" % (med, q1, q3, spread(v), len(v)))
            line = "%-7s %-22s %s" % (wl, m["name"], " | ".join(cols))
            if len(vals) == 2:
                v, won, n = verdict(m, vals[0], vals[1])
                line += " | won %d/%d | %s (bound %.2f)" % (won, n, v, m["bound"])
            else:
                ok = "ok" if spread(vals[0]) <= m["bound"] / 3 else "over a third of bound %.2f" % m["bound"]
                line += " | " + ok
            print(line)
    if failed:
        print("failed jobs across the results: %d" % failed)
    return 1 if failed else 0


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) not in (2, 3):
            print(__doc__, file=sys.stderr)
            return 2
        return compare(argv[1:])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
