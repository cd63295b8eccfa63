#!/usr/bin/env python3
"""Compare two sets of benchmark runs, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the standard output of untraced runs, one `.txt`
file per run (as run.py prints it); other files are ignored. For every workload and end-to-end metric the
table shows each side's median and quartiles and one verdict:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range
  unresolved  either side's interquartile range, as a share of its
              median, is wider than the metric's bound (unless every
              change run is better than every parent run)
  regressed   the change's median is worse by more than the bound
  unchanged   otherwise

Pairs are the i-th runs of each side in file-name order. The share of
failed operations is compared per workload and must be equal. There is no
geomean or combined score. Runs whose SIMD level or thread cap differ are
refused. Exit status: 0, or 1 when a metric regressed or a failure share
differs, 2 when the sets cannot be compared.
"""
import json
import pathlib
import re
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
RUNTIME_RE = re.compile(r"^runtime: .*simd=(\S+) .*threads=(\d+)")
WORKLOAD_RE = re.compile(r"^workload: (\S+) seed: (\d+) seconds: (\d+) "
                         r"trace: (\d)")


class Refused(Exception):
    """The two sets cannot be compared."""


@dataclass
class Run:
    workload: str
    simd: str
    threads: int
    result: dict


def parse_run(text: str, name: str = "<run>") -> Run:
    workload = simd = threads = None
    for line in text.splitlines():
        if m := WORKLOAD_RE.match(line):
            workload = m.group(1)
            if m.group(4) != "0":
                raise Refused(f"{name}: a traced run has no end-to-end set")
        elif m := RUNTIME_RE.match(line):
            simd, threads = m.group(1), int(m.group(2))
    lines = [l for l in text.splitlines() if l.strip()]
    if workload is None or simd is None or not lines:
        raise Refused(f"{name}: not the output of a perfbench run")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise Refused(f"{name}: last line is not the result object ({e})")
    return Run(workload, simd, threads, result)


def load_set(directory: pathlib.Path) -> list:
    files = sorted(p for p in directory.glob("*.txt") if p.is_file())
    if not files:
        raise Refused(f"{directory}: no runs")
    return [parse_run(p.read_text(), str(p)) for p in files]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Verdict for one metric; returns (verdict, details dict)."""
    lower = better == "lower"
    is_better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if is_better(c, p))
    worse = ((cm - pm) if lower else (pm - cm)) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    all_better = all(is_better(c, p) for c in change for p in parent)
    all_worse = all(is_better(p, c) for c in change for p in parent)
    if wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1) and worse < 0:
        v = "improved"
    elif spread > bound and not all_better and not all_worse:
        v = "unresolved"
    elif worse > bound:
        v = "regressed"
    else:
        v = "unchanged"
    return v, dict(parent=(pm, p1, p3), change=(cm, c1, c3), worse=worse,
                   spread=spread, wins=wins, pairs=len(pairs))


def failed_share(runs):
    attempted = sum(r.result["attempted"] for r in runs)
    failed = sum(r.result["failed"] for r in runs)
    return Fraction(failed, attempted)


def compare(parent_runs, change_runs, bench):
    """Rows of (workload, metric, verdict, details) plus failure rows."""
    envs = {(r.simd, r.threads) for r in parent_runs + change_runs}
    if len(envs) != 1:
        raise Refused("runs differ in SIMD level or thread cap: " +
                      ", ".join(f"simd={s} threads={t}" for s, t in
                                sorted(envs)))
    rows, failures = [], []
    workloads = [w["name"] for w in bench["workloads"]]
    for w in workloads:
        ps = [r for r in parent_runs if r.workload == w]
        cs = [r for r in change_runs if r.workload == w]
        if not ps or not cs:
            raise Refused(f"workload {w}: runs missing on one side")
        for m in bench["end_to_end"]:
            name = m["name"]
            pv = [r.result["metrics"][name]["value"] for r in ps]
            cv = [r.result["metrics"][name]["value"] for r in cs]
            v, d = verdict(pv, cv, m["better"], m["bound"])
            rows.append((w, name, m["bound"], v, d))
        fp, fc = failed_share(ps), failed_share(cs)
        failures.append((w, fp, fc, fp == fc))
    return rows, failures


def print_table(rows, failures, out=sys.stdout):
    head = (f"{'workload':<15}{'metric':<25}{'parent median [q1, q3]':>34}"
            f"{'change median [q1, q3]':>34}{'worse':>9}{'spread':>8}"
            f"{'bound':>7}{'wins':>7}  verdict")
    print(head, file=out)
    for w, name, bound, v, d in rows:
        pm, p1, p3 = d["parent"]
        cm, c1, c3 = d["change"]
        print(f"{w:<15}{name:<25}"
              f"{f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':>34}"
              f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':>34}"
              f"{d['worse'] * 100:>8.1f}%{d['spread'] * 100:>7.1f}%"
              f"{bound * 100:>6.0f}%{d['wins']:>4}/{d['pairs']:<2}  {v}",
              file=out)
    for w, fp, fc, same in failures:
        print(f"{w:<15}{'failed share':<25}{str(fp):>34}{str(fc):>34}"
              f"  {'same' if same else 'DIFFERS'}", file=out)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    try:
        rows, failures = compare(load_set(pathlib.Path(argv[1])),
                                 load_set(pathlib.Path(argv[2])), bench)
    except Refused as e:
        print(f"compare: refused: {e}", file=sys.stderr)
        return 2
    print_table(rows, failures)
    bad = any(v == "regressed" for _, _, _, v, _ in rows) or \
        not all(same for *_, same in failures)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
