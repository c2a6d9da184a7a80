#!/usr/bin/env python3
"""Build and run the MAPS benchmark harness.

    python3 perfbench/run.py --workload <invdes|label|serve|surrogate|all> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the harness and the `mapsd` daemon
in release mode (into $CARGO_TARGET_DIR, default `.bench_build`), clears
every MAPS_* variable so results are the defaults users get, and runs the
harness. The last stdout line is the result as one JSON object. `--workload
all` runs every workload in turn and prints one summary table.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["invdes", "label", "serve", "surrogate"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse(argv):
    args = {"workload": None, "seed": "1", "seconds": "20", "trace": "0"}
    it = iter(argv)
    for flag in it:
        key = flag[2:] if flag.startswith("--") else None
        if key not in args:
            fail(f"unknown argument {flag!r}")
        value = next(it, None)
        if value is None:
            fail(f"{flag} needs a value")
        args[key] = value
    if args["workload"] not in WORKLOADS + ["all"]:
        fail(f"--workload must be one of {', '.join(WORKLOADS + ['all'])}")
    if not args["seed"].isdigit() or args["trace"] not in ("0", "1"):
        fail("--seed must be a non-negative integer and --trace 0 or 1")
    try:
        if not float(args["seconds"]) > 0:
            raise ValueError
    except ValueError:
        fail("--seconds must be a positive number")
    return args


def build(env):
    """Builds the harness and mapsd; returns (harness, mapsd) paths."""
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(HERE, "..", "crates", "mapsd", "Cargo.toml")):
        fail("the MAPS crates are not next to perfbench/; run from a full checkout")
    cmd = ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", manifest,
           "-p", "perfbench", "-p", "maps-mapsd", "--bins"]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    target = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return os.path.join(target, "perfbench"), os.path.join(target, "mapsd")


def run_harness(cmd, env, timeout=175):
    """Runs the harness in its own process group, so a timeout also stops
    the mapsd daemon it may have started."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"harness timed out after {timeout} s")
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def main():
    args = parse(sys.argv[1:])
    env = {k: v for k, v in os.environ.items() if not k.startswith("MAPS_")}
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True, env=env)
    env["PERFBENCH_RUSTC"] = rustc.stdout.strip() or "unknown"
    harness, mapsd = build(env)

    workloads = WORKLOADS if args["workload"] == "all" else [args["workload"]]
    results = {}
    code = 0
    for w in workloads:
        cmd = [harness, "--workload", w, "--seed", args["seed"], "--seconds", args["seconds"],
               "--trace", args["trace"], "--mapsd", mapsd, "--out", os.path.join(HERE, "out")]
        proc = run_harness(cmd, env)
        lines = proc.stdout.rstrip("\n").split("\n")
        if len(workloads) == 1:
            sys.stdout.write(proc.stdout)
            sys.exit(proc.returncode)
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            results[w] = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            fail(f"{w}: no result line")

    print(f"\n{'workload':<10} {'metric':<24} {'value':>14} unit")
    for w, r in results.items():
        print(f"{w:<10} {'ops attempted/failed':<24} {r['attempted']:>9}/{r['failed']:<4}")
        for name, m in r["metrics"].items():
            print(f"{w:<10} {name:<24} {m['value']:>14.4f} {m['unit']}")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    sys.exit(code)


if __name__ == "__main__":
    main()
