"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pairs.py --workload figs_cli --seeds 7001-7010 \
        --seconds 30 --out BENCH_7.json --claim figs_cli:validate_s

The parent (``--parent``, default HEAD) is exported with ``git archive``
and the working tree's files (tracked and untracked, less what
.gitignore excludes) are copied, each into a fresh directory, so both
sides run ``benchmarks/run.py`` from a clean checkout.  Each seed makes
one pair: both sides run the same workload and seed, and which side runs
first alternates from pair to pair, the parent first in the 1st, 3rd,
5th ... pair.  The summary goes into ``--out`` under ``--section``
(``workloads``, ``confirmation`` for seeds not used while the change was
written, or ``trace`` for ``--trace 1`` runs), in the layout described in
the root README; sections and workloads already in the file are kept.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
QUARTILES = (
    "median, q1 and q3 from statistics.quantiles(values, n=4, "
    "method='inclusive'): linear interpolation between order statistics"
)


def parse_seeds(text: str) -> list:
    """'7001-7004' or '7001,7003' (or a mix) to a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def change_wins(parent, change, better: str) -> int:
    """Pairs in which the change is strictly better; ties count for neither."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def summarize(pairs: list, seeds: list, specs: dict) -> dict:
    """One workload entry from its pairs of run results.

    ``pairs`` holds (parent, change) result objects as printed by
    benchmarks/run.py; ``specs`` maps a metric name to its entry in
    BENCHMARK.json (``unit`` and ``better``).  Metrics without a spec are
    left out.
    """
    sides = ("parent", "change")
    metrics = {}
    for name in pairs[0][0]["metrics"]:
        if name not in specs:
            continue
        values = {s: [p[i]["metrics"][name]["value"] for p in pairs]
                  for i, s in enumerate(sides)}
        better = specs[name]["better"]
        metrics[name] = {
            "unit": specs[name]["unit"],
            "better": better,
            **{s: quartiles(values[s]) for s in sides},
            "change_wins": change_wins(values["parent"], values["change"], better),
        }
    return {
        "seeds": list(seeds),
        "pairs": len(pairs),
        "failed": {s: sum(p[i]["failed"] for p in pairs) for i, s in enumerate(sides)},
        "attempted": {s: sum(p[i]["attempted"] for p in pairs) for i, s in enumerate(sides)},
        "correct": all(r["correct"] for p in pairs for r in p),
        "metrics": metrics,
    }


def metric_specs(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec.get("per_layer", [])}


def export_parent(rev: str, dest: Path) -> str:
    commit = subprocess.run(["git", "rev-parse", rev], cwd=REPO, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), commit],
                   cwd=REPO, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return commit


def copy_working_tree(dest: Path) -> None:
    files = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=REPO, check=True, capture_output=True, text=True,
    ).stdout.split("\0")
    for name in filter(None, files):
        src = REPO / name
        if src.is_file():  # deleted but still tracked files are skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_side(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--section", default="workloads",
                        choices=("workloads", "confirmation", "trace"))
    parser.add_argument("--claim", help="workload:metric claimed by the change")
    parser.add_argument("--change", help="one line naming the change")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        roots = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for path in roots.values():
            path.mkdir()
        commit = export_parent(args.parent, roots["parent"])
        copy_working_tree(roots["change"])
        specs = metric_specs(roots["change"])

        report = json.loads(args.out.read_text()) if args.out.exists() else {}
        for workload in args.workload:
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                got = {side: run_side(roots[side], workload, seed, args.seconds, args.trace)
                       for side in order}
                pairs.append((got["parent"], got["change"]))
                print(f"{workload} seed {seed}: done ({order[0]} first)", file=sys.stderr)
            entry = summarize(pairs, args.seeds, specs)
            entry.update(seconds=args.seconds, trace=args.trace)
            report.setdefault(args.section, {})[workload] = entry

    if args.change:
        report["change"] = args.change
    report["parent_commit"] = commit
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           check=True, capture_output=True, text=True).stdout.strip()
    report["host"] = (f"{os.cpu_count()} CPUs, {platform.machine()}, "
                      f"Python {platform.python_version()}, numpy {numpy}")
    report["command"] = ("python3 benchmarks/run.py --workload W --seed S "
                         "--seconds N --trace T, N and T as in each entry")
    report["order"] = "alternating: the parent ran first in the 1st, 3rd, 5th ... pair"
    report["quartiles"] = QUARTILES
    if args.claim:
        workload, metric = args.claim.split(":")
        report["claim"] = {"workload": workload, "metric": metric}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
