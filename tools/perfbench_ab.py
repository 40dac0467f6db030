#!/usr/bin/env python3
"""A/B runner for the repository benchmark: parent vs change, alternating pairs.

    python3 tools/perfbench_ab.py --parent DIR --workload NAME
        [--pairs 10] [--seed 11] [--out FILE] [--bench-out FILE]
    python3 tools/perfbench_ab.py --from FILE [--bench-out FILE]
    python3 tools/perfbench_ab.py --ledger BENCH_pr*.json
    python3 tools/perfbench_ab.py --self-test

Runs perfbench/run.py --trace 0 at BENCHMARK.json's run_seconds from two
checkouts: the parent at --parent and the change, which is the checkout this
script sits in. The parent runs first on odd pairs, the change first on even
ones. Each run appends one JSON line to --out: its pair, side, workload, seed,
seconds, the benchmark's result line and its "info" lines, to which it adds
the user and system CPU seconds of the run's whole process tree (the build
check included) as cpu.user_s and cpu.sys_s. When --out already holds runs of the same workload, seed and
seconds, the new pairs are numbered on from the last of them, so the file
reads as one longer series. --from summarizes such a file again without
running anything.

The summary groups runs by (workload, seed, seconds) and refuses a file with
two lines for one (workload, seed, seconds, pair, side). For every
end-to-end metric in BENCHMARK.json it prints each side's median and
quartiles, the pairs the change won (ties count for neither) and a verdict.
Bounds are fractions of a median. The verdicts, checked in order:

  regression  the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  either side's interquartile range exceeds the bound, unless
              every run of the change beats every run of the parent;
  gain        the change wins at least 9/10 of the pairs and its median is
              better by more than the parent's interquartile range;
  no change   otherwise.

The info lines (wall-clock rates, step latencies, result figures, process
CPU seconds) follow without a verdict: each side's median and quartiles and
the pairs in which the change's value is lower.

It also prints how many runs reported correct and the failed/attempted
totals of each side. The exit status is 1 when a verdict is regression or
unresolved or a run failed, 2 when the file is inconsistent. The script
reads perfbench/ and BENCHMARK.json and writes neither. --self-test checks
the verdicts, the pair numbering, the grouping and the --bench-out document
on canned lines.

--bench-out FILE (with a run or with --from) also writes the summary as an
ibrar-bench-v1 document, the form a perf claim is committed in: one record
per workload, seed, seconds and end-to-end metric, whose kernel is
perfbench/<workload>/<metric>, shape "seed=S seconds=T" and checksum the
change's median; each record adds unit, better, bound, both sides'
quartiles, wins, pairs, delta and verdict, numbers at 9 significant
digits. A "totals" list carries the runs, correct runs and
failed/attempted totals of each side per workload, seed and seconds. The
printed summary and the exit status do not change.

--ledger FILE... reads committed ibrar-bench-v1 documents and prints, in PR
order (the N of BENCH_prN*.json, numerically), for each workload, seed,
seconds and end-to-end metric, each PR's change/parent median ratio and the
running product of those ratios, with the PR's verdict. A ratio is taken
inside one file only, because each file is one A/B session on one host;
medians of different files are never compared. A PR without a record for a
series adds nothing to its product. Records that are not perfbench A/B rows
(the older per-kernel documents) are skipped. The exit status is 2 when a
file names no PR or holds one series twice.
"""

import argparse
import contextlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def load_metrics(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["run_seconds"]


def parse_output(stdout):
    """The result line (the last JSON line) and the info lines of a run."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    info = {}
    for ln in lines:
        parts = ln.split()
        if len(parts) >= 3 and parts[0] == "info":
            try:
                info[parts[1]] = float(parts[2])
            except ValueError:
                pass
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return result, info


def run_once(checkout, workload, seed, seconds):
    """One perfbench run: (result line or None, info lines and process CPU)."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    result, info = parse_output(done.stdout)
    info["cpu.user_s"] = after.ru_utime - before.ru_utime
    info["cpu.sys_s"] = after.ru_stime - before.ru_stime
    if result is None:
        sys.stderr.write(done.stderr[-2000:])
    return result, info


def group_key(line):
    return (line["workload"], line["seed"], line["seconds"])


def last_pair(lines, key):
    return max((ln["pair"] for ln in lines if group_key(ln) == key), default=0)


def run_pairs(parent, workload, pairs, seed, seconds, out_path,
              runner=run_once):
    """Appends 2 * pairs lines to out_path and returns every line in it."""
    dirs = {"parent": os.path.abspath(parent), "change": ROOT}
    lines = read_lines(out_path) if os.path.exists(out_path) else []
    first = last_pair(lines, (workload, seed, seconds)) + 1
    with open(out_path, "a", encoding="utf-8") as out:
        for pair in range(first, first + pairs):
            order = SIDES if pair % 2 == 1 else SIDES[::-1]
            for side in order:
                result, info = runner(dirs[side], workload, seed, seconds)
                line = {"pair": pair, "side": side, "workload": workload,
                        "seed": seed, "seconds": seconds, "result": result,
                        "info": info}
                out.write(json.dumps(line) + "\n")
                out.flush()
                lines.append(line)
                metrics = (result or {}).get("metrics", {})
                print("pair %d %-6s %s" % (pair, side, " ".join(
                    "%s=%.4g" % (k, v["value"]) for k, v in metrics.items())),
                      file=sys.stderr)
    return lines


def read_lines(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(ln) for ln in f if ln.strip()]


def metric_value(line, name):
    result = line.get("result") or {}
    entry = result.get("metrics", {}).get(name)
    return None if entry is None else float(entry["value"])


def quantile(values, q):
    """Linear interpolation between order statistics."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo, hi = math.floor(pos), math.ceil(pos)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def quartiles(values):
    return quantile(values, 0.25), quantile(values, 0.5), quantile(values, 0.75)


def paired(lines, value_of):
    """{pair: {side: value}} for the pairs that have a value on both sides."""
    by_pair = {}
    for line in lines:
        value = value_of(line)
        if value is not None:
            by_pair.setdefault(line["pair"], {})[line["side"]] = float(value)
    return {p: v for p, v in by_pair.items() if len(v) == 2}


def verdict(metric, by_pair):
    """Summarize one metric over {pair: {side: value}}; returns a dict."""
    lower = metric["better"] == "lower"
    bound = float(metric["bound"])
    pairs = sorted(by_pair)
    vals = {side: [by_pair[p][side] for p in pairs] for side in SIDES}
    row = {"name": metric["name"], "unit": metric["unit"], "pairs": len(pairs)}
    if not pairs:
        row["verdict"] = "unresolved"
        return row

    def better(a, b):
        return a < b if lower else a > b

    q = {side: quartiles(vals[side]) for side in SIDES}
    p1, pm, p3 = q["parent"]
    cm = q["change"][1]
    wins = sum(1 for p in pairs
               if better(by_pair[p]["change"], by_pair[p]["parent"]))
    worse = (cm - pm) if lower else (pm - cm)
    worse_frac = worse / abs(pm) if pm != 0 else (math.inf if worse > 0 else 0.0)
    spread = max((s3 - s1) / abs(sm) if sm != 0 else math.inf
                 for s1, sm, s3 in q.values())
    separated = all(better(c, p) for c in vals["change"]
                    for p in vals["parent"])
    if worse_frac > bound:
        v = "regression"
    elif spread > bound and not separated:
        v = "unresolved"
    elif wins * 10 >= 9 * len(pairs) and -worse > p3 - p1:
        v = "gain"
    else:
        v = "no change"
    row.update({"quartiles": q, "wins": wins, "delta": (cm - pm) / pm
                if pm != 0 else math.nan, "spread": spread, "verdict": v})
    return row


def describe(name, by_pair):
    """An info row: quartiles per side and the pairs the change was lower."""
    pairs = sorted(by_pair)
    q = {side: quartiles([by_pair[p][side] for p in pairs]) for side in SIDES}
    pm, cm = q["parent"][1], q["change"][1]
    return {"name": name, "pairs": len(pairs), "quartiles": q,
            "lower": sum(1 for p in pairs
                         if by_pair[p]["change"] < by_pair[p]["parent"]),
            "delta": (cm - pm) / pm if pm != 0 else math.nan}


def summarize(lines, metrics):
    """Rows per (workload, seed, seconds) plus per-side correctness totals.

    Raises ValueError on two lines for one (workload, seed, seconds, pair,
    side): a summary would silently keep only one of them.
    """
    report = {}
    seen = set()
    for line in lines:
        key = group_key(line) + (line["pair"], line["side"])
        if key in seen:
            raise ValueError("two lines for workload %s seed %s seconds %s "
                             "pair %s side %s" % key)
        seen.add(key)
        w = report.setdefault(group_key(line), {
            "lines": [], "runs": {s: 0 for s in SIDES},
            "correct": {s: 0 for s in SIDES},
            "failed": {s: 0 for s in SIDES},
            "attempted": {s: 0 for s in SIDES}})
        w["lines"].append(line)
        side, result = line["side"], line.get("result") or {}
        w["runs"][side] += 1
        w["correct"][side] += 1 if result.get("correct") is True else 0
        w["failed"][side] += int(result.get("failed", 0))
        w["attempted"][side] += int(result.get("attempted", 0))
    for w in report.values():
        w["rows"] = [verdict(m, paired(w["lines"],
                                       lambda ln, n=m["name"]:
                                       metric_value(ln, n)))
                     for m in metrics]
        names = []
        for line in w["lines"]:
            names += [n for n in (line.get("info") or {}) if n not in names]
        w["info"] = []
        for name in names:
            by_pair = paired(w["lines"],
                             lambda ln, n=name: (ln.get("info") or {}).get(n))
            if by_pair:
                w["info"].append(describe(name, by_pair))
    return report


def cell(q):
    q1, qm, q3 = q
    return "%.6g [%.6g, %.6g]" % (qm, q1, q3)


def percent(delta):
    return "%8s" % "n/a" if math.isnan(delta) else "%+7.1f%%" % (100.0 * delta)


def print_report(report):
    bad = False
    for (workload, seed, seconds), w in report.items():
        print("%s seed %s, %s s: %d runs" % (workload, seed, seconds,
                                             len(w["lines"])))
        print("  %-36s %-5s %-34s %-34s %8s %6s  %s" %
              ("metric", "unit", "parent median [q1, q3]",
               "change median [q1, q3]", "delta", "wins", "verdict"))
        for row in w["rows"]:
            if "quartiles" not in row:
                print("  %-36s %-5s no complete pairs -> %s" %
                      (row["name"], row["unit"], row["verdict"]))
                bad = True
                continue
            print("  %-36s %-5s %-34s %-34s %s %3d/%-2d  %s" %
                  (row["name"], row["unit"], cell(row["quartiles"]["parent"]),
                   cell(row["quartiles"]["change"]), percent(row["delta"]),
                   row["wins"], row["pairs"], row["verdict"]))
            bad = bad or row["verdict"] in ("regression", "unresolved")
        if w["info"]:
            print("  %-36s %-5s %-34s %-34s %8s %6s" %
                  ("info (no verdict)", "", "parent median [q1, q3]",
                   "change median [q1, q3]", "delta", "lower"))
        for row in w["info"]:
            print("  %-36s %-5s %-34s %-34s %s %3d/%-2d" %
                  (row["name"], "", cell(row["quartiles"]["parent"]),
                   cell(row["quartiles"]["change"]), percent(row["delta"]),
                   row["lower"], row["pairs"]))
        for side in SIDES:
            print("  %-6s correct %d/%d runs, failed %d of %d attempted" %
                  (side, w["correct"][side], w["runs"][side],
                   w["failed"][side], w["attempted"][side]))
            bad = bad or w["correct"][side] != w["runs"][side]
            bad = bad or w["failed"][side] != 0
    return 1 if bad else 0


def sig9(value):
    """`value` at 9 significant digits, as bench/reporter.hpp prints them."""
    return float("%.9g" % value)


def bench_document(report, metrics):
    """The summary as an ibrar-bench-v1 document (see --bench-out)."""
    spec = {m["name"]: m for m in metrics}
    records, totals = [], []
    for (workload, seed, seconds), w in report.items():
        for row in w["rows"]:
            m = spec[row["name"]]
            rec = {"kernel": "perfbench/%s/%s" % (workload, row["name"]),
                   "shape": "seed=%s seconds=%s" % (seed, seconds),
                   "ns_per_op": 0.0, "threads": 0, "checksum": None,
                   "unit": row["unit"], "better": m["better"],
                   "bound": float(m["bound"]), "pairs": row["pairs"],
                   "verdict": row["verdict"]}
            if "quartiles" in row:
                rec["checksum"] = sig9(row["quartiles"]["change"][1])
                for side in SIDES:
                    rec[side] = dict(zip(("q1", "median", "q3"),
                                         map(sig9, row["quartiles"][side])))
                rec["wins"] = row["wins"]
                rec["delta"] = (None if math.isnan(row["delta"])
                                else sig9(row["delta"]))
            records.append(rec)
        totals.append({"workload": workload, "seed": seed,
                       "seconds": seconds,
                       **{k: w[k] for k in ("runs", "correct", "failed",
                                            "attempted")}})
    return {"schema": "ibrar-bench-v1", "records": records, "totals": totals}


def write_bench(path, report, metrics):
    doc = bench_document(report, metrics)
    with open(path, "w", encoding="utf-8") as f:
        f.write('{"schema": "ibrar-bench-v1", "records": [')
        f.write(",".join("\n  " + json.dumps(r) for r in doc["records"]))
        f.write('],\n "totals": [')
        f.write(",".join("\n  " + json.dumps(t) for t in doc["totals"]))
        f.write("]}\n")


# ---- ledger -----------------------------------------------------------------

def pr_number(path):
    """N of a BENCH_prN*.json path; ValueError when the name has none."""
    m = re.match(r"BENCH_pr(\d+)", os.path.basename(path))
    if m is None:
        raise ValueError("%s: not a BENCH_prN file" % path)
    return int(m.group(1))


def ledger(paths):
    """{(workload, shape, metric): [row]} in PR order, each row a dict of the
    PR, its file, the change/parent median ratio, the running product and
    the verdict. Raises ValueError on a file without a PR number or with one
    series twice."""
    series = {}
    for path in sorted(paths, key=lambda p: (pr_number(p),
                                             os.path.basename(p))):
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        seen = set()
        for rec in doc.get("records", []):
            parts = str(rec.get("kernel", "")).split("/")
            medians = [rec.get(side, {}).get("median") for side in SIDES]
            if len(parts) != 3 or parts[0] != "perfbench" or None in medians:
                continue
            key = (parts[1], rec.get("shape", ""), parts[2])
            if key in seen:
                raise ValueError("%s: %s %s %s twice" % ((path,) + key))
            seen.add(key)
            parent, change = medians
            rows = series.setdefault(key, [])
            chained = rows[-1]["chained"] if rows else 1.0
            ratio = change / parent if parent != 0 else math.nan
            if not math.isnan(ratio):
                chained *= ratio
            rows.append({"pr": pr_number(path),
                         "file": os.path.basename(path), "ratio": ratio,
                         "chained": chained, "verdict": rec.get("verdict"),
                         "unit": rec.get("unit"),
                         "better": rec.get("better")})
    return series


def print_ledger(series):
    print("change/parent median ratio per PR, and their running product "
          "(< 1 is lower)")
    for (workload, shape, metric), rows in sorted(series.items()):
        print("%s %s %s (%s, %s is better)" % (
            workload, shape, metric, rows[-1]["unit"], rows[-1]["better"]))
        for row in rows:
            ratio = ("%8s" % "n/a" if math.isnan(row["ratio"])
                     else "%8.3f" % row["ratio"])
            print("  PR %-4d %-22s ratio %s  chained %7.3f  %s" % (
                row["pr"], row["file"], ratio, row["chained"],
                row["verdict"]))
    return 0


# ---- self-test --------------------------------------------------------------

SELF_TEST_METRICS = [
    {"name": "cpu", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "rss", "unit": "MB", "better": "lower", "bound": 0.2},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def result_line(values, extra=None):
    result = {"correct": True, "attempted": 100, "failed": 0,
              "metrics": {k: {"value": v, "unit": "x"}
                          for k, v in values.items()}}
    result.update(extra or {})
    return result


def canned(workload, parent, change, extra=None):
    """Lines for per-pair metric dicts {name: value} of each side."""
    lines = []
    for i, (p, c) in enumerate(zip(parent, change), start=1):
        for side, values in (("parent", p), ("change", c)):
            lines.append({"pair": i, "side": side, "workload": workload,
                          "seed": 11, "seconds": 20,
                          "result": result_line(values,
                                                (extra or {}).get((i, side))),
                          "info": {"step_ms.p50": 1.0}})
    return lines


def series(values, name):
    return [{name: v} for v in values]


def self_test():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    cases = [
        # name, metric, parent values, change values, expected verdict
        ("gain", "cpu", base, [v * 0.8 for v in base], "gain"),
        ("eight of ten is not a gain", "cpu", base,
         [v * 0.8 for v in base[:8]] + [v * 1.05 for v in base[8:]],
         "no change"),
        ("gap inside the parent's IQR", "cpu", base,
         [v - 0.05 for v in base], "no change"),
        ("regression", "cpu", base, [v * 1.3 for v in base], "regression"),
        ("small slowdown", "cpu", base, [v * 1.05 for v in base], "no change"),
        ("spread beyond the bound", "cpu",
         [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0],
         [5.5, 14.5, 6.5, 13.5, 7.5, 12.5, 8.5, 11.5, 9.5, 10.5],
         "unresolved"),
        ("wide but separated", "cpu",
         [20.0, 30.0, 21.0, 29.0, 22.0, 28.0, 23.0, 27.0, 24.0, 26.0],
         [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0], "gain"),
        ("tighter bound", "rss", base, [v * 1.22 for v in base],
         "regression"),
        ("higher is better: gain", "rate", base, [v * 1.2 for v in base],
         "gain"),
        ("higher is better: regression", "rate", base,
         [v * 0.7 for v in base], "regression"),
        ("ties count for neither side", "cpu", base, list(base), "no change"),
    ]
    failures = []
    checks = len(cases)
    for label, name, parent, change, expect in cases:
        report = summarize(canned(label, series(parent, name),
                                  series(change, name)),
                           [m for m in SELF_TEST_METRICS if m["name"] == name])
        got = report[(label, 11, 20)]["rows"][0]["verdict"]
        if got != expect:
            failures.append("%s: %s, expected %s" % (label, got, expect))

    # Totals, a run without a result line, and the --from round trip.
    checks += 3
    lines = canned("totals", series(base[:3], "cpu"), series(base[:3], "cpu"),
                   extra={(2, "change"): {"correct": False, "failed": 4}})
    lines.append({"pair": 4, "side": "parent", "workload": "totals",
                  "seed": 11, "seconds": 20, "result": None})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ab.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(json.dumps(ln) + "\n" for ln in lines)
        w = summarize(read_lines(path), SELF_TEST_METRICS[:1])[
            ("totals", 11, 20)]
    if (w["runs"], w["correct"], w["failed"], w["attempted"]) != (
            {"parent": 4, "change": 3}, {"parent": 3, "change": 2},
            {"parent": 0, "change": 4}, {"parent": 300, "change": 300}):
        failures.append("totals: %r" % ({k: w[k] for k in
                                         ("runs", "correct", "failed",
                                          "attempted")},))
    if w["rows"][0]["pairs"] != 3:
        failures.append("a pair without both sides was counted")
    if quartiles([4.0, 1.0, 3.0, 2.0]) != (1.75, 2.5, 3.25):
        failures.append("quartiles: %r" % (quartiles([4.0, 1.0, 3.0, 2.0]),))

    # Two invocations appended to one file read as one series: pairs 1-3
    # then 4-5, the parent first on odd pairs throughout. A third run at
    # another seed starts its own series at pair 1 and its own group.
    checks += 4
    calls = []

    def fake(checkout, workload, seed, seconds):
        side = "change" if checkout == ROOT else "parent"
        calls.append(side)
        value = 10.0 if side == "parent" else 8.0
        return (result_line({"cpu": value + 0.01 * len(calls)}),
                {"step_ms.p50": value, "cpu.sys_s": 0.1})

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(io.StringIO()):
        path = os.path.join(tmp, "ab.jsonl")
        parent_dir = os.path.join(tmp, "parent")
        run_pairs(parent_dir, "w", 3, 11, 20, path, runner=fake)
        run_pairs(parent_dir, "w", 2, 11, 20, path, runner=fake)
        run_pairs(parent_dir, "w", 2, 7, 20, path, runner=fake)
        lines = read_lines(path)
    order = [(ln["seed"], ln["pair"], ln["side"]) for ln in lines]
    expect = ([(11, p, s) for p in range(1, 6)
               for s in (SIDES if p % 2 == 1 else SIDES[::-1])] +
              [(7, p, s) for p in (1, 2)
               for s in (SIDES if p % 2 == 1 else SIDES[::-1])])
    if order != expect:
        failures.append("appended pairs: %r" % (order,))
    report = summarize(lines, SELF_TEST_METRICS[:1])
    if sorted(report) != [("w", 7, 20), ("w", 11, 20)]:
        failures.append("groups: %r" % (sorted(report),))
    elif (report[("w", 11, 20)]["rows"][0]["pairs"] != 5 or
          report[("w", 7, 20)]["rows"][0]["pairs"] != 2):
        failures.append("appended runs were not read as one series")
    info = {r["name"]: r for r in report.get(("w", 11, 20), {}).get("info", [])}
    if (sorted(info) != ["cpu.sys_s", "step_ms.p50"] or
            info["step_ms.p50"]["lower"] != 5 or
            info["cpu.sys_s"]["lower"] != 0):
        failures.append("info rows: %r" % (sorted(info),))

    # --bench-out: a canned file round-trips through the document, which
    # reads back as the summary it came from.
    checks += 1
    lines = (canned("bench", series(base, "cpu"),
                    series([v * 0.8 for v in base], "cpu")) +
             canned("bench2", series(base[:4], "rss"),
                    series(base[:4], "rss"),
                    extra={(3, "parent"): {"failed": 2}}))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ab.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(json.dumps(ln) + "\n" for ln in lines)
        report = summarize(read_lines(path), SELF_TEST_METRICS[:2])
        out = os.path.join(tmp, "BENCH.json")
        write_bench(out, report, SELF_TEST_METRICS[:2])
        with open(out, encoding="utf-8") as f:
            doc = json.load(f)
    rec = {r["kernel"]: r for r in doc.get("records", [])}
    cpu = rec.get("perfbench/bench/cpu", {})
    got = (doc.get("schema"), sorted(rec), cpu.get("shape"),
           cpu.get("checksum"), cpu.get("parent", {}).get("median"),
           cpu.get("wins"), cpu.get("pairs"), round(cpu.get("delta", 0), 6),
           cpu.get("verdict"), rec.get("perfbench/bench2/rss", {}).get(
               "verdict"),
           [(t["workload"], t["failed"]["parent"], t["attempted"]["change"])
            for t in doc.get("totals", [])])
    expect = ("ibrar-bench-v1",
              ["perfbench/bench/cpu", "perfbench/bench/rss",
               "perfbench/bench2/cpu", "perfbench/bench2/rss"],
              "seed=11 seconds=20", quartiles([v * 0.8 for v in base])[1],
              quartiles(base)[1], 10, 10, -0.2, "gain", "no change",
              [("bench", 0, 1000), ("bench2", 2, 400)])
    if got != expect:
        failures.append("bench document: %r" % (got,))

    # A file holding one (workload, seed, seconds, pair, side) twice, as two
    # separately numbered runs would, is refused.
    checks += 1
    twice = canned("dup", series(base[:2], "cpu"), series(base[:2], "cpu"))
    try:
        summarize(twice + twice[:1], SELF_TEST_METRICS[:1])
        failures.append("a duplicated line was accepted")
    except ValueError:
        pass

    # --ledger: files in PR order (10 after 9), ratios taken inside each
    # file, chained per series; a PR missing a series skips it, and a
    # non-A/B document adds nothing.
    checks += 2

    def rec(kernel, shape, parent, change):
        return {"kernel": kernel, "shape": shape, "unit": "ms",
                "better": "lower", "verdict": "gain",
                "parent": {"median": parent}, "change": {"median": change}}

    docs = {
        "BENCH_pr9.json": [rec("perfbench/w/cpu", "seed=11", 4.0, 2.0),
                           rec("perfbench/w/cpu", "seed=23", 8.0, 6.0)],
        "BENCH_pr10.json": [rec("perfbench/w/cpu", "seed=11", 5.0, 4.0)],
        "BENCH_pr2.json": [{"kernel": "gemm_seed_ikj", "ns_per_op": 1.0}],
        "BENCH_pr12_x.json": [rec("perfbench/w/cpu", "seed=23", 3.0, 1.5),
                              rec("perfbench/w/cpu", "seed=11", 1.0, 1.0)],
    }
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, records in docs.items():
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w", encoding="utf-8") as f:
                json.dump({"schema": "ibrar-bench-v1", "records": records}, f)
        got = {k: [(r["pr"], r["ratio"], r["chained"]) for r in rows]
               for k, rows in ledger(paths).items()}
        with open(paths[0], "w", encoding="utf-8") as f:
            json.dump({"records": docs["BENCH_pr9.json"] * 2}, f)
        try:
            ledger(paths)
            failures.append("ledger accepted one series twice in a file")
        except ValueError:
            pass
    expect = {("w", "seed=11", "cpu"): [(9, 0.5, 0.5), (10, 0.8, 0.4),
                                        (12, 1.0, 0.4)],
              ("w", "seed=23", "cpu"): [(9, 0.75, 0.75), (12, 0.5, 0.375)]}
    if got != expect:
        failures.append("ledger: %r" % (got,))

    for f in failures:
        print("FAIL " + f)
    print("perfbench_ab self-test: %d of %d checks failed" %
          (len(failures), checks))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out", default="perfbench_ab.jsonl",
                    help="file the result lines are appended to")
    ap.add_argument("--from", dest="from_file", metavar="FILE",
                    help="summarize saved lines instead of running")
    ap.add_argument("--bench-out", metavar="FILE",
                    help="also write the summary as ibrar-bench-v1 JSON")
    ap.add_argument("--ledger", nargs="+", metavar="FILE",
                    help="chain the per-PR ratios of BENCH_prN.json files")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.ledger:
        try:
            return print_ledger(ledger(args.ledger))
        except ValueError as e:
            print("perfbench_ab: %s" % e, file=sys.stderr)
            return 2
    metrics, run_seconds = load_metrics()
    if args.from_file:
        lines = read_lines(args.from_file)
    else:
        if not args.parent or not args.workload:
            ap.error("--parent and --workload are required to run pairs")
        lines = run_pairs(args.parent, args.workload, args.pairs, args.seed,
                          run_seconds, args.out)
    try:
        report = summarize(lines, metrics)
    except ValueError as e:
        print("perfbench_ab: %s" % e, file=sys.stderr)
        return 2
    if args.bench_out:
        write_bench(args.bench_out, report, metrics)
    return print_report(report)


if __name__ == "__main__":
    sys.exit(main())
