"""Law-checking benchmark for multirel.

    python3 perfbench/run.py --workload registry-3x3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload is a closed loop with one client: passes run one at a time,
each in a fresh interpreter (``worker.py``), until the next pass would
overrun ``--seconds``.  Before each pass, and after the last, a few more
interpreters only import the program, so that ``setup_s`` is a median of
set-ups spread over the run.  Every pass's outputs
are checked (see ``worker.verify``) and its canonical report digest must
match every other pass of the same source tree, workload and seed,
including passes of earlier runs recorded in ``.perfbench/digests.json``.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics, timed in untraced passes and scaled to a reference
speed (``worker.SpeedSampler``); with ``--trace 1`` untraced and traced
passes alternate and it carries the per-layer metrics of the traced
passes, which are wall times.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("registry-2x2", "registry-3x3", "cex-hunt")
# set-up-only processes before each pass and after the last: the host's
# speed drifts over seconds, so set-ups are spread over the run
SETUP_SPAWNS = 5
PASS_TIMEOUT = 170

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("tuples_per_s", "1/s"),
    ("law_ms_p50", "ms"),
    ("law_ms_p95", "ms"),
    ("witnesses_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

_SELF = "s"
PER_LAYER = (
    ("dsl.eval_term.calls", "count"), ("dsl.eval_term.self_s", _SELF),
    ("dsl.parse.calls", "count"), ("dsl.parse.self_s", _SELF),
    ("mrel.validate.calls", "count"), ("mrel.validate.self_s", _SELF),
    ("mrel.split_terminal.self_s", _SELF), ("mrel.closure.self_s", _SELF),
    ("mrel.inner_bool.self_s", _SELF), ("mrel.mrel_bool.self_s", _SELF),
    ("mrel.preorder.self_s", _SELF), ("mrel.mrel_to_rel.self_s", _SELF),
    ("peleg.peleg_compose.calls", "count"), ("peleg.peleg_compose.self_s", _SELF),
    ("peleg.kleisli_compose.calls", "count"), ("peleg.kleisli_compose.self_s", _SELF),
    ("peleg.peleg_lift.calls", "count"), ("peleg.peleg_lift.self_s", _SELF),
    ("peleg.odot.calls", "count"), ("peleg.odot.self_s", _SELF),
    ("peleg.cap_errors", "count"),
    ("rel.rel_compose.self_s", _SELF), ("rel.rel_converse.self_s", _SELF),
    ("rel.residual.self_s", _SELF), ("rel.symmetric_quotient.self_s", _SELF),
    ("power.mu.calls", "count"), ("power.mu.self_s", _SELF),
    ("power.omega.calls", "count"), ("power.omega.self_s", _SELF),
    ("power.image_functor.calls", "count"), ("power.image_functor.self_s", _SELF),
    ("power.power_transpose.calls", "count"), ("power.power_transpose.self_s", _SELF),
    ("determinise.fusion.self_s", _SELF), ("determinise.fission.self_s", _SELF),
    ("determinise.cofusion.self_s", _SELF), ("determinise.cofission.self_s", _SELF),
    ("generate.instances.items", "count"), ("generate.instances.self_s", _SELF),
    ("generate.filter_accept_ratio", "ratio"),
    ("laws.check.self_s", _SELF), ("laws.guard_pass_ratio", "ratio"),
    ("laws.shrink.calls", "count"), ("laws.shrink.self_s", _SELF),
    ("laws.shrink.incl_s", _SELF), ("laws.shrink.probes", "count"),
    ("laws.shrink.evals_per_witness", "count"),
    ("registry.build_s", _SELF), ("cli.main.self_s", _SELF),
    ("trace.pass_s", _SELF), ("trace_overhead_ratio", "ratio"),
)


class PassFailed(Exception):
    """A worker process died or printed no result."""


def spawn(args, importtime=False):
    """Run one worker to completion and return its result."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [os.path.join(HERE, "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{' '.join(args)}: no result within {PASS_TIMEOUT} s") from None
    noise = [ln for ln in proc.stderr.splitlines() if not ln.startswith("import time:")]
    if noise:
        sys.stderr.write("\n".join(noise) + "\n")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{' '.join(args)}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if importtime:
        result["registry_import_s"] = _import_self_s(proc.stderr, "multirel.registry")
    return result


def _import_self_s(stderr, module):
    for line in stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == module:
            return int(parts[0].rsplit(None, 1)[-1]) / 1e6
    raise PassFailed(f"no import time reported for {module}")


def source_digest():
    """Identifies the code under test: a hash of the program's source tree
    and of the worker, which defines the workloads."""
    h = hashlib.sha256()
    paths = [os.path.join(HERE, "worker.py")]
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        paths += [os.path.join(dirpath, n) for n in sorted(filenames) if n.endswith(".py")]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def digest_mismatches(workload, seed, digests):
    """Passes whose report digest differs from the first recorded for this
    code, workload and seed; records the digest if it is new."""
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except FileNotFoundError:
        known = {}
    key = f"{source_digest()}/{workload}/{seed}"
    ref = known.setdefault(key, digests[0])
    os.makedirs(OUT, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    return sum(d != ref for d in digests)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_workload(workload, seed, seconds, trace):
    started = time.perf_counter()
    setup_runs, plain, traced, rounds = [], [], [], []
    while True:
        round_started = time.perf_counter()
        setup_runs += [spawn(["--setup-only"]) for _ in range(SETUP_SPAWNS)]
        plain.append(spawn([workload, str(seed)]))
        if trace:
            os.makedirs(OUT, exist_ok=True)
            trace_file = os.path.join(OUT, f"trace-{workload}.bin")
            traced.append(spawn([workload, str(seed), "--trace-file", trace_file],
                                importtime=True))
        now = time.perf_counter()
        rounds.append(now - round_started)
        if now - started + statistics.median(rounds) > seconds:
            break
    setup_runs += [spawn(["--setup-only"]) for _ in range(SETUP_SPAWNS)]
    passes = plain + traced
    setups = [r["setup_s"] for r in setup_runs + plain]
    setup_walls = [r["setup_wall_s"] for r in setup_runs + plain]
    attempted = sum(r["laws"] + r["witnesses"] + 1 for r in passes)
    failed = sum(r["not_declared"] + r["skipped"] + r["not_refailing"] for r in passes)
    failed += digest_mismatches(workload, seed, [r["digest"] for r in passes])

    law_ms = [t * 1000 for r in plain for t in r["law_s"]]
    samples = {
        "setup_s": setups,
        "pass_s": [r["pass_s"] for r in plain],
        "tuples_per_s": [r["tuples"] / r["pass_s"] for r in plain],
        "witnesses_per_s": [r["witnesses"] / r["pass_s"] for r in plain],
        "peak_rss_mb": [r["rss_mb"] for r in plain],
    }
    metrics = {}
    lines = [f"{workload}: seed {seed}, {len(plain)} untraced and {len(traced)} traced passes, "
             f"{failed}/{attempted} operations failed (failed_ratio {failed / attempted:.6f})"]
    for name, unit in END_TO_END:
        if name.startswith("law_ms_"):
            value = percentile(law_ms, int(name[-2:]))
            note = f"p{name[-2:]} of n={len(law_ms)} law checks"
        else:
            q1, value, q3 = quartiles(samples[name])
            note = f"median of n={len(samples[name])}  [q1 {q1:.6g}, q3 {q3:.6g}]"
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<16} {value:>14.6g} {unit:<4} {note}")
    scales = [r["pass_s"] / r["pass_wall_s"] for r in plain]
    lines.append(f"  unscaled: pass_s {statistics.median(r['pass_wall_s'] for r in plain):.6g} s, "
                 f"setup_s {statistics.median(setup_walls):.6g} s; "
                 f"scale factors {min(scales):.3f} to {max(scales):.3f}")
    if trace:
        def med(key):
            return statistics.median(key(r) for r in traced)

        layer_metrics = {}
        for name, unit in PER_LAYER:
            if name == "laws.guard_pass_ratio":
                value = med(lambda r: r["checked"] / r["tuples"] if r["tuples"] else 1.0)
            elif name == "registry.build_s":
                value = med(lambda r: r["registry_import_s"] + r["registry_call_s"])
            elif name == "trace.pass_s":
                value = med(lambda r: r["pass_s"])
            elif name == "trace_overhead_ratio":
                # traced passes are not scaled, so compare wall times
                value = med(lambda r: r["pass_s"]) / statistics.median(
                    r["pass_wall_s"] for r in plain)
            else:
                value = med(lambda r: r["layers"].get(name, 0))
            layer_metrics[name] = {"value": value, "unit": unit}
            lines.append(f"  {name:<32} {value:>14.6g} {unit:<5} median of n={len(traced)}")
        metrics = layer_metrics
    print("\n".join(lines), flush=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except PassFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if args.workload == "all":
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        out = results[args.workload]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
