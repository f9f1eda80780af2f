"""Alternated parent/change pairs of one benchmark workload.

Exports two revisions of the repository with `git archive` into a
temporary directory, so the worktree is left as it is, and runs each
tree's `benchmark/run.py` with the command, limits and run length of
`BENCHMARK.json` and ``--trace 0``, in an environment passed through
unchanged.  The trees alternate, and the one that runs first swaps on
every pair.  Run from anywhere:

    python3 tools/pairs.py PARENT CHANGE --workload W [--pairs N] [--seed S]
    python3 tools/pairs.py PARENT --aa --workload W    # PARENT against itself

For each end-to-end metric of `BENCHMARK.json` it prints the medians of
both trees, the pairs the change won, the parent's quartiles, whether the
gap between the medians exceeds the distance between those quartiles,
whether the change reads a gain (better in at least nine pairs of ten and
past the quartile distance) and whether it is worse than the parent by
more than the metric's bound.  It also prints the failed attempts of
each tree and whether the two trees stored the same (iterations, |W0|)
fingerprints.  It exits with status 1 when a metric goes past its bound,
a run is not correct or the change fails a larger share of attempts,
0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# a gain needs the change better in this share of the pairs
WIN_SHARE = 0.9


class Row(NamedTuple):
    """One end-to-end metric over the pairs."""

    name: str
    parent: float
    change: float
    wins: int
    pairs: int
    quartiles: tuple[float, float]
    beyond_spread: bool
    gain: bool
    past_bound: bool


def last_result(stdout: str) -> dict:
    """The result object `benchmark/run.py` prints on its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def better(spec: dict, a: float, b: float) -> bool:
    """True iff value `a` of the metric `spec` is strictly better than `b`."""
    return a > b if spec["better"] == "higher" else a < b


def compare(spec: dict, pairs: list[tuple[dict, dict]]) -> Row:
    """The row of metric `spec` over (parent, change) result pairs."""
    name = spec["name"]
    old = [p["metrics"][name]["value"] for p, _ in pairs]
    new = [c["metrics"][name]["value"] for _, c in pairs]
    low, _, high = statistics.quantiles(old, n=4)
    parent, change = statistics.median(old), statistics.median(new)
    wins = sum(better(spec, c, p) for p, c in zip(old, new))
    beyond = abs(change - parent) > high - low
    # the bound is a share of the parent's median, in the worse direction
    worse = change - parent if spec["better"] == "lower" else parent - change
    past = parent != 0 and worse / abs(parent) > spec["bound"]
    gain = (wins >= WIN_SHARE * len(pairs) and beyond
            and better(spec, change, parent))
    return Row(name, parent, change, wins, len(pairs), (low, high), beyond,
               gain, past)


def failed_share(results: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def report(specs: list[dict], pairs: list[tuple[dict, dict]]) -> tuple[str, bool]:
    """The printed table and whether the change passes every bound."""
    rows = [compare(spec, pairs) for spec in specs
            if all(spec["name"] in r["metrics"] for pair in pairs
                   for r in pair)]
    lines = ["%-16s %12s %12s %8s %6s %25s %7s %5s %6s"
             % ("metric", "parent", "change", "change", "wins",
                "parent quartiles", ">iqr", "gain", "bound")]
    for row in rows:
        move = (row.change / row.parent - 1) * 100 if row.parent else 0.0
        lines.append("%-16s %12.6g %12.6g %+7.1f%% %3d/%-2d %12.6g-%-12.6g "
                     "%7s %5s %6s"
                     % (row.name, row.parent, row.change, move, row.wins,
                        row.pairs, row.quartiles[0], row.quartiles[1],
                        "yes" if row.beyond_spread else "no",
                        "yes" if row.gain else "no",
                        "PAST" if row.past_bound else "within"))
    parents = [p for p, _ in pairs]
    changes = [c for _, c in pairs]
    correct = all(r["correct"] for r in parents + changes)
    more_failures = failed_share(changes) > failed_share(parents)
    lines.append("failed attempts: parent %d of %d, change %d of %d%s"
                 % (sum(r["failed"] for r in parents),
                    sum(r["attempted"] for r in parents),
                    sum(r["failed"] for r in changes),
                    sum(r["attempted"] for r in changes),
                    "" if correct else "; a run was NOT correct"))
    ok = correct and not more_failures and not any(r.past_bound for r in rows)
    return "\n".join(lines), ok


def export(revision: str, target: Path) -> None:
    """The tree of `revision` written to `target` by `git archive`."""
    archive = subprocess.run(["git", "archive", "--format=tar", revision],
                             cwd=ROOT, capture_output=True, check=True).stdout
    target.mkdir()
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive,
                   check=True)


def fingerprints(tree: Path) -> dict:
    """The fingerprints a tree's runs stored, without the source digest."""
    try:
        store = json.loads((tree / "benchmark" / "out" /
                            "fingerprints.json").read_text())
    except (OSError, ValueError):
        return {}
    return {key: (entry["inputs"], entry["fingerprints"])
            for key, entry in store.items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--aa", action="store_true",
                        help="run PARENT against a second export of itself")
    args = parser.parse_args(argv)
    if args.aa == (args.change is not None):
        parser.error("give CHANGE, or --aa without it")
    if args.pairs < 2:
        parser.error("quartiles need at least two pairs")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = bench["command"] + [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    change = args.parent if args.aa else args.change

    if os.environ.get("PYTHONDONTWRITEBYTECODE"):
        print("PYTHONDONTWRITEBYTECODE is set: no .pyc is written, so every "
              "run compiles src/pgsi of its tree")
    else:
        print("bytecode is written: the first run of each tree compiles "
              "src/pgsi and later runs load its .pyc")
    # a terminated tool still kills its benchmark run and removes its trees
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with tempfile.TemporaryDirectory(prefix="pgsi-pairs-") as tmp:
        trees = {}
        for side, revision in (("parent", args.parent), ("change", change)):
            trees[side] = Path(tmp) / side
            export(revision, trees[side])
        print("parent %s, change %s%s; %s"
              % (args.parent, change, " (A/A)" if args.aa else "",
                 " ".join(command)), flush=True)
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                done = subprocess.run(command, cwd=trees[side],
                                      capture_output=True, text=True)
                if done.returncode != 0:
                    print(done.stdout[-2000:] + done.stderr[-2000:],
                          file=sys.stderr)
                    return 2
                got[side] = last_result(done.stdout)
            pairs.append((got["parent"], got["change"]))
            print("pair %d/%d, %s first" % (i + 1, args.pairs, order[0]),
                  flush=True)
        same = fingerprints(trees["parent"]) == fingerprints(trees["change"])
    table, ok = report(bench["end_to_end"], pairs)
    print(table)
    print("fingerprints: %s" % ("equal" if same else "DIFFER"))
    return 0 if ok and same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
