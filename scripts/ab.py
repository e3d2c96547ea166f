#!/usr/bin/env python3
# Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
"""A/B driver: paired perfbench runs of a parent revision and the working tree.

Usage (from the repository root):
    scripts/ab.py --workload solo_fine [--workload solo_spill ...] \\
        [--parent HEAD] [--pairs 10] [--seconds 6] [--seed 1] \\
        [--workdir DIR]

Both sides are exported with `git archive` into --workdir (default: a new
temporary directory): the parent from its revision, the change from a tree
written through a temporary index, so uncommitted and untracked (not
ignored) files count. For every workload the driver runs --pairs pairs of
`perfbench/run.py --trace 0`, alternating which side runs first, and
prints every run, then per metric the medians and quartiles of both sides,
the change/parent median ratio and the pairs the change won. A side's first
run also builds its perfbench, inside its own copy; run.py times only the
benchmark, not the build.

Only the end-to-end metrics and their bounds in BENCHMARK.json are judged.
A metric is
  * "worse" when the change median is worse than the parent median by
    more than the metric's bound (relative);
  * "better in every run" when every change run beats every parent run;
  * "unresolved" when either side's interquartile range exceeds the bound
    (relative to its median): the runs spread too widely to tell;
  * "within bound" otherwise.

Exit status: 0 when every run is `correct` with 0 failed operations and no
metric is "worse"; 1 otherwise (a run that prints no result, such as one
whose build failed, counts as incorrect); 2 on a setup failure.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def fail(message):
    print("ab: " + message, file=sys.stderr)
    sys.exit(2)


def git(*args, env=None):
    proc = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode:
        fail("git %s failed: %s" % (" ".join(args),
                                    proc.stderr.decode().strip()))
    return proc.stdout


def working_tree_id(scratch):
    """A tree object holding the working tree as `git add -A` sees it,
    written through a temporary index so the real index stays as it is."""
    env = dict(os.environ, GIT_INDEX_FILE=str(scratch / "ab.index"))
    git("read-tree", "HEAD", env=env)
    git("add", "-A", env=env)
    return git("write-tree", env=env).decode().strip()


def export(tree_ish, dest):
    dest.mkdir(parents=True)
    archive = git("archive", "--format=tar", tree_ish)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def side_env(copy):
    # run.py builds into $CARGO_TARGET_DIR/perfbench; keep each side's
    # build inside its own copy.
    return dict(os.environ, CARGO_TARGET_DIR=str(copy / ".bench_build"))


def run_once(copy, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=copy, env=side_env(copy),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode or not lines:
        print("ab: run.py in %s exited %d with no result:\n%s" % (
            copy, proc.returncode, proc.stderr[-2000:]), file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    result = json.loads(lines[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(metric, parent, change):
    """Summary row for one end-to-end metric over paired runs."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    ratio = cm / pm if pm else float("inf")
    worse = (ratio > 1 + bound) if lower else (ratio < 1 - bound)
    spread = max((p3 - p1) / pm if pm else 0, (c3 - c1) / cm if cm else 0)
    every = (max(change) < min(parent)) if lower else \
        (min(change) > max(parent))
    verdict = ("worse" if worse else
               "better in every run" if every else
               "unresolved" if spread > bound else "within bound")
    return {"metric": metric["name"], "parent_median": pm,
            "parent_iqr": [p1, p3], "change_median": cm,
            "change_iqr": [c1, c3], "ratio": ratio, "change_wins": wins,
            "pairs": len(parent), "spread": spread, "bound": bound,
            "verdict": verdict}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workdir", type=pathlib.Path)
    args = parser.parse_args()
    if args.pairs < 1:
        fail("--pairs must be >= 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {w["name"] for w in bench["workloads"]}
    for w in args.workload:
        if w not in known:
            fail("unknown workload %s (BENCHMARK.json has %s)" %
                 (w, ", ".join(sorted(known))))
    work = args.workdir or pathlib.Path(tempfile.mkdtemp(prefix="casm_ab_"))
    work.mkdir(parents=True, exist_ok=True)
    parent_rev = git("rev-parse", "--verify",
                     args.parent + "^{commit}").decode().strip()
    copies = {"parent": work / "parent", "change": work / "change"}
    for side, tree_ish in (("parent", parent_rev),
                           ("change", working_tree_id(work))):
        if copies[side].exists():
            fail("%s already exists; pass an empty --workdir" % copies[side])
        export(tree_ish, copies[side])
        print("# %s: %s" % (side, tree_ish), flush=True)

    ok = True
    for workload in args.workload:
        runs = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                r = run_once(copies[side], workload, args.seed, args.seconds)
                runs[side].append(r)
                m = r["metrics"]
                print("%s pair %2d %-6s correct=%s failed=%d %s" % (
                    workload, pair, side, r["correct"], r["failed"],
                    " ".join("%s=%.6g" % (e["name"], m.get(e["name"], 0))
                             for e in bench["end_to_end"])), flush=True)
                if not r["correct"] or r["failed"]:
                    ok = False
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"].get(name, 0) for r in runs[side]]
                      for side in SIDES}
            row = judge(metric, values["parent"], values["change"])
            ok &= row["verdict"] != "worse"
            print("%s %-14s parent %.6g [%.6g, %.6g]  change %.6g "
                  "[%.6g, %.6g]  ratio %.3f  change won %d/%d  "
                  "spread %.2f (bound %.2f)  %s" % (
                      workload, name, row["parent_median"],
                      *row["parent_iqr"], row["change_median"],
                      *row["change_iqr"], row["ratio"], row["change_wins"],
                      row["pairs"], row["spread"], row["bound"],
                      row["verdict"]), flush=True)
    print("ab: %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
