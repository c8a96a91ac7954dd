#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload design|fleet|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which
compiles the dfw library from ../src) into .bench_build, or into
$CARGO_TARGET_DIR when that is set, then runs dfw_perfbench with the same
arguments. Build output goes to stderr; stdout is the benchmark's, whose
last line is the JSON result, its metrics put in BENCHMARK.json's order
(a per-layer metric of a layer the workload bypasses reads 0). Exits
nonzero, printing no result, when the library sources are missing, the
build fails, or the metrics are not those BENCHMARK.json declares; exits
nonzero too when an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, configured)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no dfw sources at src/; run from a full checkout",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          check=False).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", out, "--target", "dfw_perfbench", "-j", jobs],
        stdout=sys.stderr, check=False)
    return result.returncode == 0


def declared_metrics(trace):
    """BENCHMARK.json's metrics for this mode, as (name, unit) pairs."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def normalise(result, trace):
    """Puts the result's metrics in BENCHMARK.json's order and units.

    Every end-to-end metric must be measured. A per-layer metric the
    workload did not measure is a layer it bypasses and reads 0. Returns
    an error message, or None.
    """
    measured = result["metrics"]
    declared = declared_metrics(trace)
    undeclared = sorted(set(measured) - {name for name, _ in declared})
    if undeclared:
        return "undeclared metrics %s" % undeclared
    metrics = {}
    for name, unit in declared:
        if name not in measured:
            if not trace:
                return "%s not measured" % name
            metrics[name] = {"value": 0, "unit": unit}
        elif measured[name]["unit"] != unit:
            return "%s measured in %s, declared in %s" % (
                name, measured[name]["unit"], unit)
        else:
            metrics[name] = measured[name]
    result["metrics"] = metrics
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["design", "fleet", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    binary = os.path.join(out, "dfw_perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False,
                                stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    lines = result.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    try:
        final = json.loads(lines[-1])
        error = normalise(final, args.trace == "1")
    except (IndexError, ValueError, KeyError, TypeError) as e:
        error = "no result line (%s)" % e
    if error is not None:
        print("run.py: %s" % error, file=sys.stderr)
        return result.returncode or 1
    print(json.dumps(final))
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
