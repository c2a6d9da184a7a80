#!/usr/bin/env python3
"""Steadiness record of the MAPS benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--seconds 20]
        [--workloads invdes,label,serve,surrogate] [--first-seed 1]
        [--write perfbench/steadiness.json]

Runs every workload `--runs` times per set, each run with another seed
(first-seed, first-seed+1, ...), through run.py exactly as a comparison of
two commits would. For each end-to-end metric it reports the median, the quartiles
(Python's statistics.quantiles(values, n=4)), min and max, and the spread:
the distance between the quartiles as a share of the median. With two sets
it also compares the second set's median with the first's, both signed (a
positive number means "worse") and as a distance.

It exits non-zero if any spread, set-up time included, or any signed
second-set change exceeds the metric's bound in BENCHMARK.json. It also
reports, without failing, which spreads and which distances between the two
sets' medians exceed a tenth of the median.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def arg(name, default):
    flag = f"--{name}"
    if flag in sys.argv:
        return sys.argv[sys.argv.index(flag) + 1]
    return default


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run failed:\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
        "spread": (q3 - q1) / med, "values": values,
    }


def main():
    runs = int(arg("runs", "10"))
    sets = int(arg("sets", "2"))
    seconds = arg("seconds", "20")
    first = int(arg("first-seed", "1"))
    workloads = arg("workloads", "invdes,label,serve,surrogate").split(",")
    out = arg("write", None)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    record = {"runs": runs, "sets": sets, "seconds": float(seconds), "first_seed": first, "sets_data": []}
    for s in range(sets):
        data = {}
        for w in workloads:
            rows = [run_once(w, first + i, seconds) for i in range(runs)]
            data[w] = {m: summary([r[m] for r in rows]) for m in rows[0]}
            for m, st in data[w].items():
                print(f"set {s + 1} {w:<10} {m:<12} median {st['median']:>10.4f} "
                      f"q1 {st['q1']:>10.4f} q3 {st['q3']:>10.4f} min {st['min']:>10.4f} "
                      f"max {st['max']:>10.4f} spread {st['spread']:6.3f} "
                      f"(bound {bounds[m]['bound']})", flush=True)
        record["sets_data"].append(data)

    ok = True
    over_tenth = []
    if sets >= 2:
        record["comparison"] = {}
        first_set, second_set = record["sets_data"][0], record["sets_data"][1]
        for w in workloads:
            record["comparison"][w] = {}
            for m in first_set[w]:
                a, b = first_set[w][m]["median"], second_set[w][m]["median"]
                worse = (b - a) / a if bounds[m]["better"] == "lower" else (a - b) / a
                record["comparison"][w][m] = {"worse": worse, "distance": abs(b - a) / a}
                verdict = "ok" if worse <= bounds[m]["bound"] else "WORSE THAN BOUND"
                ok = ok and verdict == "ok"
                if abs(b - a) / a > 0.1:
                    over_tenth.append(f"{w} {m}: set 2 median {abs(b - a) / a:.3f} from set 1")
                print(f"set2 vs set1 {w:<10} {m:<12} {worse:+.3f} |{abs(b - a) / a:.3f}| "
                      f"(bound {bounds[m]['bound']}) {verdict}")
    for s, data in enumerate(record["sets_data"]):
        for w in workloads:
            for m, st in data[w].items():
                if st["spread"] > bounds[m]["bound"]:
                    ok = False
                    print(f"set {s + 1} {w} {m}: spread {st['spread']:.3f} exceeds bound "
                          f"{bounds[m]['bound']}")
                if st["spread"] > 0.1:
                    over_tenth.append(f"set {s + 1} {w} {m}: spread {st['spread']:.3f}")
    record["over_a_tenth"] = over_tenth
    for line in over_tenth:
        print(f"over a tenth: {line}")
    if out:
        with open(out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
