#!/usr/bin/env python3
"""Compare two sets of perfbench results (see perfbench/README.md).

    python3 perfbench/compare.py BASE [NEW]

BASE and NEW are directories (or single files) holding the saved stdout
of perfbench runs, one run per file. For each workload the tool prints
the median and quartiles of every end-to-end metric in each set, the
change of the medians and a verdict against the bound in BENCHMARK.json;
then the per-layer medians of the traced runs; then, per (workload,
seed) present in both sets, whether the simulated-statistics digest and
the host-independent counters moved. With one set it prints the spread
of each metric (quartile distance over median) against a third of its
bound, the steadiness target.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bench():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m for m in bench["end_to_end"]},
            {m["name"]: m for m in bench["per_layer"]})


def read_runs(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    runs = []
    for name in files:
        with open(name) as f:
            lines = [line.strip() for line in f if line.strip()]
        detail = next((json.loads(line[len("DETAIL "):]) for line in lines
                       if line.startswith("DETAIL ")), None)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if not detail or not isinstance(result, dict) or "metrics" not in result:
            print(f"skipping {name}: no perfbench result", file=sys.stderr)
            continue
        runs.append({"file": name, "detail": detail, "result": result})
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def group(runs, trace):
    out = {}
    for run in runs:
        if bool(run["detail"]["trace"]) != trace:
            continue
        wl = out.setdefault(run["detail"]["workload"], {})
        for name, m in run["result"]["metrics"].items():
            wl.setdefault(name, []).append(m["value"])
    return out


def fmt(v):
    return f"{v:.4g}"


def worse_share(spec, base, new):
    """How much worse NEW is than BASE, as a share of BASE (<0: better)."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return -change if spec["better"] == "higher" else change


def single(runs, e2e):
    steady = True
    for wl, metrics in sorted(group(runs, False).items()):
        print(f"== {wl} ==")
        for name, spec in e2e.items():
            vals = metrics.get(name)
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else 0.0
            ok = name == "setup_s" or spread <= spec["bound"] / 3
            steady &= ok
            print(f"  {name:20s} n={len(vals):2d} median {fmt(med):>10s} "
                  f"[{fmt(q1)}, {fmt(q3)}] {spec['unit']:8s} spread "
                  f"{spread:6.1%} (bound {spec['bound']:.0%})"
                  f"{'' if ok else '  UNSTEADY'}")
    for wl, metrics in sorted(group(runs, True).items()):
        print(f"== {wl} (traced) ==")
        for name, vals in metrics.items():
            print(f"  {name:36s} n={len(vals):2d} median "
                  f"{fmt(statistics.median(vals))}")
    return 0 if steady else 1


def compare(base, new, e2e):
    regressed = False
    b_e2e, n_e2e = group(base, False), group(new, False)
    for wl in sorted(set(b_e2e) | set(n_e2e)):
        print(f"== {wl}: end to end ==")
        for name, spec in e2e.items():
            bv, nv = b_e2e.get(wl, {}).get(name), n_e2e.get(wl, {}).get(name)
            if not bv or not nv:
                continue
            bq1, bmed, bq3 = quartiles(bv)
            nq1, nmed, nq3 = quartiles(nv)
            worse = worse_share(spec, bmed, nmed)
            spread = (bq3 - bq1) / abs(bmed) if bmed else 0.0
            if worse > spec["bound"]:
                verdict = "REGRESSED"
                regressed = True
            elif spread > spec["bound"]:
                verdict = "unresolved (base spread over bound)"
            elif -worse > spread:
                verdict = "improved"
            else:
                verdict = "within bound"
            print(f"  {name:18s} base {fmt(bmed):>10s} [{fmt(bq1)}, "
                  f"{fmt(bq3)}]  new {fmt(nmed):>10s} [{fmt(nq1)}, "
                  f"{fmt(nq3)}] {spec['unit']:8s} {-worse:+7.1%} "
                  f"(bound {spec['bound']:.0%}) {verdict}")
    b_tr, n_tr = group(base, True), group(new, True)
    for wl in sorted(set(b_tr) & set(n_tr)):
        print(f"== {wl}: per layer (traced runs) ==")
        for name in b_tr[wl]:
            if name not in n_tr[wl]:
                continue
            bmed = statistics.median(b_tr[wl][name])
            nmed = statistics.median(n_tr[wl][name])
            change = (nmed - bmed) / abs(bmed) if bmed else 0.0
            print(f"  {name:36s} {fmt(bmed):>10s} -> {fmt(nmed):>10s} "
                  f"{change:+7.1%}")
    print("== digests and counters, per (workload, seed) ==")
    first = {}
    for run in base:
        d = run["detail"]
        first.setdefault((d["workload"], d["seed"]), d)
    seen = set()
    for run in new:
        d = run["detail"]
        key = (d["workload"], d["seed"])
        if key not in first or key in seen:
            continue
        seen.add(key)
        b = first[key]
        moved = {k: (b["counters"].get(k), d["counters"].get(k))
                 for k in set(b["counters"]) | set(d["counters"])
                 if b["counters"].get(k) != d["counters"].get(k)}
        same = b["digest"] == d["digest"]
        print(f"  {key[0]:8s} seed {key[1]:<6d} digest "
              f"{'same' if same else b['digest'] + ' -> ' + d['digest']}"
              f"{'' if moved else ', counters same'}")
        for k, (bv, nv) in sorted(moved.items()):
            print(f"      {k}: {bv} -> {nv}")
    return 1 if regressed else 0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    e2e, _ = load_bench()
    base = read_runs(argv[1])
    if len(argv) == 2:
        return single(base, e2e)
    return compare(base, read_runs(argv[2]), e2e)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
