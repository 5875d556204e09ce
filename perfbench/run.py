"""Run one benchmark workload and print its result as the last line.

Usage, from the repository root::

    python3 perfbench/run.py --workload table1-train --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untouched; ``--trace 1`` patches span recorders around each layer's
public functions and prints the per-layer metrics instead.  Metric
names and units come from ``BENCHMARK.json``; see ``perfbench/README.md``
for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from harness import OUT_DIR, ROOT, SRC, cpu_times, emit, environment

#: Workload name -> the module in this directory that runs it.
MODULES = {
    "table1-train": "table1",
    "serve-open": "serve_open",
    "autotune-cold": "autotune_cold",
}
WORKLOADS = tuple(MODULES)


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _not_entered(name: str, wanted: list[dict]) -> list[str]:
    """Per-layer names that only another workload measures (each module
    lists its own in ``OWNS``); every other name must be measured."""
    own = importlib.import_module(MODULES[name]).OWNS
    others = tuple(
        prefix for other, module in MODULES.items() if other != name
        for prefix in importlib.import_module(module).OWNS
    )
    return [m["name"] for m in wanted
            if m["name"].startswith(others) and not m["name"].startswith(own)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start_cpu = cpu_times()

    workload = importlib.import_module(MODULES[args.workload])
    trace = bool(args.trace)
    outcome, measured, extra, rec = workload.run(
        args.seed, args.seconds, trace
    )

    spec = _load_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    not_entered = _not_entered(args.workload, wanted) if trace else []
    missing = [m["name"] for m in wanted
               if m["name"] not in measured and m["name"] not in not_entered]
    if missing:
        print(f"error: workload did not measure {missing}", file=sys.stderr)
        return 3
    units = {m["name"]: m["unit"] for m in wanted}
    wrong_unit = [k for k, v in measured.items()
                  if k in units and v["unit"] != units[k]]
    if wrong_unit:
        print(f"error: units disagree with BENCHMARK.json: {wrong_unit}",
              file=sys.stderr)
        return 3
    # Another workload's own layer is not entered here and reads 0.
    metrics = {
        m["name"]: {
            "value": measured[m["name"]]["value"]
            if m["name"] in measured else 0.0,
            "unit": m["unit"],
        }
        for m in wanted
    }
    env = environment(args.workload, args.seed, args.seconds, trace,
                      start_cpu, **getattr(workload, "ENV", {}))
    if rec is not None:
        OUT_DIR.mkdir(exist_ok=True)
        rec.dump(OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl")
    extra = dict(extra, all_metrics=measured, not_entered=not_entered)
    emit(env, outcome, metrics, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
