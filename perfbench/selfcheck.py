#!/usr/bin/env python3
"""Self-check of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py

For every workload it checks that
  1. every metric is printed with a unit, and the names are exactly
     BENCHMARK.json's end_to_end list (--trace 0) or per_layer list
     (--trace 1);
  2. the exact counts repeat between two traced runs with the same seed;
  3. a deliberately corrupted expected byte (--corrupt-oracle) is reported
     as one failed operation and correct=false, while a normal run
     reports none;
  4. every result validates against perfbench/result.schema.json.
It exits 0 when every check passes.
"""
import json
import os
import re
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import run  # noqa: E402

SEED = 7
SECONDS = "1"
# Counts the benchmark derives from exact integers; they must not vary
# between runs with the same seed.
EXACT = ["client.msgs_per_op", "client.fs_requests_per_op",
         "client.regions_per_msg", "wire.bytes_per_user_byte",
         "iod.store_ops_per_msg", "iod.local_accesses_per_msg",
         "manager.msgs_per_op"]


def validate(value, schema, path="$"):
    """Errors of `value` against the JSON Schema subset the schema uses."""
    errors = []
    kind = schema.get("type")
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    checks = {"object": lambda v: isinstance(v, dict),
              "boolean": lambda v: isinstance(v, bool),
              "integer": lambda v: number(v) and isinstance(v, int),
              "number": number,
              "string": lambda v: isinstance(v, str)}
    if kind and not checks[kind](value):
        return [f"{path}: not of type {kind}"]
    if "minimum" in schema and value < schema["minimum"]:
        errors.append(f"{path}: below minimum {schema['minimum']}")
    if "pattern" in schema and not re.search(schema["pattern"], value):
        errors.append(f"{path}: does not match {schema['pattern']}")
    if kind == "object":
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing {key}")
        if len(value) < schema.get("minProperties", 0):
            errors.append(f"{path}: too few properties")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if "propertyNames" in schema:
                errors += validate(key, schema["propertyNames"],
                                   f"{path}.{key}")
            if key in props:
                errors += validate(item, props[key], f"{path}.{key}")
            elif extra is False:
                errors.append(f"{path}: unexpected {key}")
            elif isinstance(extra, dict):
                errors += validate(item, extra, f"{path}.{key}")
    return errors


class Args:
    def __init__(self, workload, trace):
        self.workload, self.seed, self.seconds, self.trace = (
            workload, SEED, SECONDS, trace)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(run.HERE, "result.schema.json")) as f:
        schema = json.load(f)
    expected = {0: [m["name"] for m in bench["end_to_end"]],
                1: [m["name"] for m in bench["per_layer"]]}
    binary = run.build()
    problems = []

    def result(workload, trace, *extra):
        code, lines = run.run(binary, Args(workload, trace),
                              ("--tiny",) + extra)
        label = f"{workload} trace={trace} {' '.join(extra)}".strip()
        out = run.parse_result(lines)
        if code != 0 or out is None:
            problems.append(f"{label}: exit {code}, no result")
            return None
        for error in validate(out, schema):
            problems.append(f"{label}: schema: {error}")
        names = list(out["metrics"])
        if names != expected[trace]:
            problems.append(f"{label}: metrics {names} != {expected[trace]}")
        for name, metric in out["metrics"].items():
            if not metric.get("unit"):
                problems.append(f"{label}: {name} has no unit")
        print(f"{label}: attempted {out['attempted']} failed {out['failed']} "
              f"correct {out['correct']}", flush=True)
        return out

    for workload in [w["name"] for w in bench["workloads"]]:
        plain = result(workload, 0)
        if plain and (plain["failed"] != 0 or not plain["correct"]):
            problems.append(f"{workload}: a clean run reported failures")
        first, second = result(workload, 1), result(workload, 1)
        if first and second:
            for name in EXACT:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                if a != b:
                    problems.append(f"{workload}: {name} {a} != {b}")
        corrupted = result(workload, 0, "--corrupt-oracle")
        if corrupted and (corrupted["failed"] != 1 or corrupted["correct"]):
            problems.append(f"{workload}: injected oracle mismatch reported "
                            f"failed={corrupted['failed']} "
                            f"correct={corrupted['correct']}")

    for problem in problems:
        print("FAIL " + problem)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
