#!/usr/bin/env python3
"""Perf ledger: alternated campaign_bench pairs of two revisions, appended
as rows to BENCH_campaign.json.

    python3 tools/bench_ledger.py PARENT CHANGE --workload W --seconds S --seeds A-B

PARENT and CHANGE are git revisions of this repository (exported with
`git archive`) or source directories. Each side is built by its own
campaign_bench/run.py under its own CARGO_TARGET_DIR inside .bench_ledger/
(reused across invocations). For every seed in A..B
the two sides run back to back on that seed, untraced, and the side that
runs first flips with each pair. The tool exits 1 when a run is not
`correct`, fails, or folds to a different `fold_digest` than the other side
on the same seed.

Otherwise it appends one row per end-to-end metric of BENCHMARK.json to
BENCH_campaign.json: both revisions, workload, seconds, metric, unit, each side's median,
quartiles and values in seed order, the pairs the change won (ties count for
neither), the pairs won by whichever side ran first (`first_won`; far from half
of the pairs, it shows an order bias), the seeds, and nproc, build type and
compiler from the info line.
The ledger is a JSON array with one row per line; existing rows are never
rewritten.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".bench_ledger")
LEDGER = os.path.join(ROOT, "BENCH_campaign.json")


class Side:
    """One revision under test: its source tree, build directory and rev."""

    def __init__(self, spec):
        commit = git_commit(spec)
        if commit is not None:
            self.rev = commit[:12]
            base = os.path.join(WORKDIR, commit[:12])
            self.tree = os.path.join(base, "tree")
            if not os.path.isdir(self.tree):
                export(commit, self.tree)
        elif os.path.isdir(spec):
            self.tree = os.path.abspath(spec)
            self.rev = None  # taken from the info line
            digest = hashlib.sha256(self.tree.encode()).hexdigest()[:12]
            base = os.path.join(WORKDIR, "dir-" + digest)
        else:
            sys.exit("bench_ledger: %r is neither a git revision nor a directory" % spec)
        self.target = os.path.join(base, "target")


def git_commit(spec):
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "--quiet",
                          spec + "^{commit}"], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def export(commit, tree):
    archive = subprocess.run(["git", "-C", ROOT, "archive", commit],
                             capture_output=True, check=True).stdout
    os.makedirs(tree + ".part", exist_ok=True)
    subprocess.run(["tar", "-x", "-C", tree + ".part"], input=archive, check=True)
    os.rename(tree + ".part", tree)


def run_bench(side, args):
    """Runs campaign_bench/run.py in `side`'s tree; returns (info, result)."""
    env = dict(os.environ, CARGO_TARGET_DIR=side.target)
    cmd = [sys.executable, os.path.join(side.tree, "campaign_bench", "run.py")] + args
    out = subprocess.run(cmd, cwd=side.tree, env=env, capture_output=True, text=True)
    lines = [l for l in out.stdout.splitlines() if l.startswith("{")]
    if len(lines) < 2:
        sys.stderr.write(out.stderr[-4000:])
        sys.exit("bench_ledger: no result from %s (exit %d)" % (" ".join(cmd), out.returncode))
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    if out.returncode != 0 or not result.get("correct") or result.get("failed"):
        sys.stderr.write(out.stdout[-4000:])
        sys.exit("bench_ledger: %s is not correct (exit %d, failed %s)"
                 % (" ".join(cmd), out.returncode, result.get("failed")))
    return info, result


def summary(values):
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def append_rows(path, rows):
    lines = [json.dumps(row, sort_keys=True) for row in rows]
    if os.path.exists(path):
        with open(path) as f:
            text = f.read()
        json.loads(text)  # refuse to append to a ledger that does not parse
        body = text.rstrip()
        if not body.endswith("]"):
            sys.exit("bench_ledger: %s does not end in ']'" % path)
        kept = body[:-1].rstrip()
        text = kept + (",\n" if kept != "[" else "\n") + ",\n".join(lines) + "\n]\n"
    else:
        text = "[\n" + ",\n".join(lines) + "\n]\n"
    with open(path, "w") as f:
        f.write(text)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--seeds", required=True, help="A-B, inclusive")
    a = ap.parse_args()
    try:
        lo, hi = (int(x) for x in a.seeds.split("-"))
    except ValueError:
        ap.error("--seeds must be A-B")
    if lo < 0 or hi < lo or a.seconds < 1:
        ap.error("--seeds A-B needs 0 <= A <= B, and --seconds >= 1")
    seeds = list(range(lo, hi + 1))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    os.makedirs(WORKDIR, exist_ok=True)
    sides = {"parent": Side(a.parent), "change": Side(a.change)}
    for name, side in sides.items():
        print("bench_ledger: building %s in %s" % (name, side.target), flush=True)
        run_bench(side, ["--workload", a.workload, "--seed", str(lo), "--runs", "256",
                         "--trace", "0"])

    runs = {"parent": [], "change": []}
    firsts = []  # the side that ran first in each pair
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        firsts.append(order[0])
        for name in order:
            info, result = run_bench(sides[name], ["--workload", a.workload, "--seed",
                                                   str(seed), "--seconds", str(a.seconds),
                                                   "--trace", "0"])
            runs[name].append((info, result))
        digests = {name: runs[name][-1][0]["fold_digest"] for name in runs}
        print("seed %d (%s first): fold %s/%s, runs_per_s %.1f / %.1f" % (
            seed, order[0], digests["parent"], digests["change"],
            runs["parent"][-1][1]["metrics"]["runs_per_s"]["value"],
            runs["change"][-1][1]["metrics"]["runs_per_s"]["value"]), flush=True)
        if digests["parent"] != digests["change"]:
            sys.exit("bench_ledger: seed %d folds to %s on the parent and %s on the change"
                     % (seed, digests["parent"], digests["change"]))

    host = runs["change"][0][0]
    rows = []
    for m in metrics:
        values = {n: [r[1]["metrics"][m["name"]]["value"] for r in runs[n]] for n in runs}
        sign = 1 if m["better"] == "higher" else -1
        won = sum(1 for p, c in zip(values["parent"], values["change"]) if sign * (c - p) > 0)
        first_won = sum(1 for p, c, first in zip(values["parent"], values["change"], firsts)
                        if sign * (p - c if first == "parent" else c - p) > 0)
        row = {
            "parent_rev": sides["parent"].rev or runs["parent"][0][0]["rev"],
            "change_rev": sides["change"].rev or runs["change"][0][0]["rev"],
            "workload": a.workload, "seconds": a.seconds, "metric": m["name"],
            "unit": m["unit"], "better": m["better"],
            "parent": summary(values["parent"]), "change": summary(values["change"]),
            "pairs": len(seeds), "pairs_won": won, "first_won": first_won, "seeds": seeds,
            "nproc": host["nproc"], "build_type": host["build_type"],
            "compiler": host["compiler"],
        }
        rows.append(row)
        # Significant digits, not decimals: setup_s is a fraction of a
        # millisecond and runs_per_s is in the tens of thousands.
        print("%-14s parent %10.5g [%.5g, %.5g]  change %10.5g [%.5g, %.5g]  won %d/%d"
              "  first_won %d/%d %s"
              % (m["name"], row["parent"]["median"], row["parent"]["q1"], row["parent"]["q3"],
                 row["change"]["median"], row["change"]["q1"], row["change"]["q3"], won,
                 len(seeds), first_won, len(seeds), m["unit"]))
    append_rows(LEDGER, rows)
    print("bench_ledger: appended %d rows to %s" % (len(rows), LEDGER))
    return 0


if __name__ == "__main__":
    sys.exit(main())
