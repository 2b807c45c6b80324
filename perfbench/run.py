"""The tropimeas benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {suite,dist_query,cli} \
        --seed N --seconds S --trace {0,1} [--suite-seed K]

Run it from the root of a checkout; it imports the package from `src/`.
It prints an information line (environment, output digests, sample
counts) and, as its last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are
the end-to-end metrics of BENCHMARK.json, measured with tracing off; with
`--trace 1` they are its per-layer metrics, from a traced run of a fixed
amount of the workload's work plus untraced probes of single layers.
Outputs and spans go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3   # in-process input generations
IMPORT_REPEATS = 7  # fresh interpreters that time the imports
MAX_MEASURE_S = 120  # closed loops stop here even short of their sample count
clock = time.perf_counter


def closed_loop(step, seconds, min_samples, keep, same):
    """Call step(i) for i = 0, 1, ... until `seconds` have passed and at
    least `min_samples` calls are done.

    Only the first `keep` answers are kept (all when keep is None); a
    later answer i is compared with answer i % keep by `same` and dropped,
    so memory does not grow with the number of calls.  An operation that
    raises answers with a Failure.  Returns the latencies, the kept
    answers, and the later answers that failed or differed.
    """
    from workloads import Failure

    latencies, answers = array("d"), []
    late_failed = late_differed = 0
    start = clock()
    while True:
        t0 = clock()
        try:
            ans = step(len(latencies))
        except Exception as exc:  # counted as a failed operation
            ans = Failure(repr(exc))
        t1 = clock()
        i = len(latencies)
        latencies.append(t1 - t0)
        if keep is None or i < keep:
            answers.append(ans)
        elif isinstance(ans, Failure):
            late_failed += 1
        elif not same(ans, answers[i % keep]):
            late_differed += 1
        elapsed = t1 - start
        if (elapsed >= seconds and i + 1 >= min_samples) or elapsed >= MAX_MEASURE_S:
            return latencies, answers, late_failed, late_differed


def end_to_end(wl, inputs, args, setup_s):
    from stats import peak_rss_mb, percentile

    lat, answers, late_failed, late_differed = closed_loop(
        lambda i: wl.step(inputs, i), args.seconds, wl.min_samples, wl.keep, wl.same)
    verdict = wl.check(inputs, answers)
    failed = verdict["failed"] + late_failed + late_differed
    wrong = verdict["wrong"] + late_differed
    tail = wl.tail_pct
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(children=wl.name == "cli"),
        "op_p50_ms": 1e3 * percentile(lat, 50),
        "op_tail_ms": 1e3 * (max(lat) if tail is None else percentile(lat, tail)),
        "ops_per_s": len(lat) / sum(lat),
    }
    info = {"samples": len(lat), "tail_percentile": tail or "max",
            "wrong_answers": wrong,
            "digests": {verdict["digest_name"]: verdict["digest"]}}
    return metrics, info, len(lat), failed, wrong == 0


def per_layer(wl, inputs, args, env):
    import probes
    from spans import MODULES, Tracer
    from tropimeas import suite
    from workloads import Cli, Failure

    t = clock()
    plain = wl.fixed_work(inputs)
    untraced_s = clock() - t
    tracer = Tracer()
    tracer.install(counters={"kernels.oracle_sweep": probes.sweep_seeds})
    try:
        t = clock()
        traced = wl.fixed_work(inputs)
        wall = clock() - t
    finally:
        tracer.uninstall()
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_tsv(OUT / f"spans-{wl.name}-seed{args.seed}.tsv")

    rows = tracer.summarize()

    def get(name, key):
        return rows.get(name, {}).get(key, 0.0)

    def share(name):
        return get(name, "self_s") / wall

    m = {}
    for module in MODULES:
        m[f"{module}.self_share"] = sum(
            r["self_s"] for name, r in rows.items() if name.startswith(module + ".")) / wall
    for name in ("kernels.oracle_sweep", "pseudometric.hat_d", "pseudometric.oracle_sup",
                 "measure.canonicalize", "measure.pushforward", "measure.flatten",
                 "measure.meta_measure", "sampling.random_space",
                 "geometry.random_measure", "geometry.dap_demo",
                 "bridge.gamma_to_delta", "bridge.delta_to_gamma", "cli.main"):
        m[f"{name}.self_share"] = share(name)
    for name in ("kernels.oracle_sweep", "pseudometric.hat_d", "measure.canonicalize",
                 "metric.build_space"):
        m[f"{name}.calls"] = int(get(name, "calls"))
    m["bridge.calls"] = int(sum(r["calls"] for name, r in rows.items()
                                if name.startswith("bridge.")))
    m["kernels.oracle_sweep.seeds"] = int(tracer.counts["kernels.oracle_sweep"])
    for outer, inner in (("aggregate_d", "hat_d"), ("separates", "hat_d"),
                         ("hat_d_meta", "tilde_d")):
        m[f"pseudometric.{outer}.{inner}_per_call"] = tracer.nested_per_call(
            f"pseudometric.{outer}", f"pseudometric.{inner}")
    checks = [(f"crit{cid:02d}_{name}", fn) for cid, name, fn in suite.CRITERIA]
    checks += [(f"extra_{name}", fn) for name, fn in suite.EXTRAS]
    for label, fn in checks:
        m[f"suite.{label}.share"] = get(f"suite.{fn.__name__}", "total_s") / wall
    m["trace.wall_s"] = wall
    m["trace.overhead_share"] = wall / untraced_s - 1.0
    m["trace.span_coverage"] = tracer.covered_s() / wall
    m["trace.spans"] = len(tracer)

    m.update(probes.oracle_probes())
    m.update(probes.library_probes())
    probe_calls = Cli().setup(probes.PROBE_SEED)
    m.update(probes.jsonio_probes(OUT / f"cli-seed{probes.PROBE_SEED}"))
    m.update(probes.cli_probes(probe_calls, env))

    # Tracing must not change an answer: the traced work is checked against
    # the same work done untraced.
    wrong = sum(a != b for a, b in zip(plain, traced))
    failed = sum(isinstance(a, Failure) for a in traced) + wrong
    info = {"traced_operations": len(traced), "spans": len(tracer),
            "untraced_s": untraced_s}
    return m, info, len(traced), failed, wrong == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite", "dist_query", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite-seed", type=int, default=0,
                        help="seed of the suite run by the suite workload (held out: 1)")
    args = parser.parse_args(argv)

    if not (SRC / "tropimeas" / "__init__.py").is_file():
        print(f"run.py: no package at {SRC / 'tropimeas'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    import probes
    from statistics import median

    from stats import environment
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    wl = cls(args.suite_seed) if args.workload == "suite" else cls()

    # Set-up: a process imports once, so the imports are timed in fresh
    # interpreters; input generation is timed in process.  Both repeated.
    import_s = probes.import_seconds(wl.imports, env, IMPORT_REPEATS)
    for module in wl.imports:
        importlib.import_module(module)
    generation = []
    for _ in range(SETUP_REPEATS):
        t = clock()
        inputs = wl.setup(args.seed)
        generation.append(clock() - t)
    setup_s = import_s + median(generation)

    if args.trace:
        metrics, info, attempted, failed, correct = per_layer(wl, inputs, args, env)
        declared = spec["per_layer"]
    else:
        metrics, info, attempted, failed, correct = end_to_end(wl, inputs, args, setup_s)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"run.py: metrics {sorted(set(units) ^ set(metrics))} "
                         "differ from BENCHMARK.json")
    if args.workload == "cli":
        info["known_defects"] = wl.known_defects()
    info["environment"] = environment(ROOT, args.workload, args.seed)
    if args.workload == "suite":
        info["environment"]["suite_seed"] = args.suite_seed
    result = {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
