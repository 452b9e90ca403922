"""One benchmark pass, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED [--trace-file PATH]
    python3 perfbench/worker.py --setup-only

``run.py`` starts this script once per pass, one at a time, and reads the
JSON object it prints as its last line.  A fresh process per pass means a
cache warmed by an earlier pass cannot help a later one, as for a user of
the CLI, who pays import and set-up on every invocation.

The program is driven only through its public API: ``registry()``,
``Law``/``Slot``/``check``, ``env_from_json``/``eval_term``/``parse`` and
``cli.main``.  Only ``sys``, ``time`` and the built-in ``_signal`` are
imported before ``multirel``, so that ``setup_s`` (importing ``multirel``
and its CLI, then calling ``registry()``) pays for every module the
program needs.

Untraced timings are scaled to a reference speed by ``SpeedSampler``; see
its docstring.
"""

import os
import sys
import time

# the C module under ``signal``: importing ``signal`` itself would import
# ``enum`` before ``multirel`` and take it out of ``setup_s``
import _signal

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# registry-2x2 is ``check --all`` at 2,2 without the laws below.  A full
# pass takes about two minutes, and a seeded draw of laws would change the
# pass's weight and latency profile with the seed.  Left out are the laws
# that took 100 ms or more in a ``check --all --sizes 2,2 --seed 7
# --timing`` run, except four kept for their load (L3.4-fission-
# subdistributive, a two-slot sweep of 65,536 tuples; the profiled
# L2.2-icap-comm; L3.2-assoc-outer-det, with three slots; and
# NEG-alpha-peleg-multiplicative), and seven of the ten sampled laws,
# whose instance generation would otherwise be a tenth of the pass.  The
# pass keeps 186 laws and about a fourteenth of the registry's time; the
# seed moves its three sampled laws.
SKIP_2X2 = frozenset({
    "L2.1-residuation-left", "L2.1-residuation-right", "L2.1-modular-law",
    "L2.1-monad-assoc", "L2.2-icup-comm", "L2.2-smyth-def", "L2.2-hoare-def",
    "L2.2-em-def", "L2.2-down-peleg", "L2.2-klift-ext-compose",
    "NEG-peleg-assoc-general", "L2.2-assoc-union-closed-third",
    "L2.2-first-arg-sup", "L2.2-univalent-ext", "L2.2-univalent-assoc",
    "L5-closure-outer-total", "L5-closure-inner-total",
    "L4-closure-inner-univalent", "L4-assoc-inner-univalent",
    "L3.2-assoc-inner-det", "L3.2-inner-det-peleg-form", "L3.2-kleisli-assoc",
    "L3.2-kleisli-standard", "L3.2-quantaloid-inner-det",
    "L3.2-quantaloid-outer-det", "L3.2-alpha-preserves-unions",
    "L3.3-galois-eta-alpha", "L3.3-galois-fission-fusion", "L3.3-alpha-icap",
    "L3.3-alpha-monotone", "L3.3-alpha-union-monotone", "L3.3-fusion-monotone",
    "L3.3-fission-monotone", "L3.4-fission-peleg-precompose",
    "L3.4-fusion-em-subdistributive", "L3.4-alpha-peleg-subdistributive",
    "L4-peleg-nu-tau", "L4-tau-peleg", "L4-iuniv-peleg-form",
    "L4-iuniv-alpha-multiplicative", "L4-iuniv-fission-functor",
    "L4-iuniv-fusion-functor", "L4-iuniv-union-closed",
    "L4-second-arg-nonempty-sups", "L5-total-alpha-multiplicative",
    "L5-total-fission-functor", "L5-total-fusion-functor",
    "L6-galois-cofission-cofusion", "L6-down-peleg-det",
    "L6-up-peleg-inner-det", "A-icap", "A-odot", "A-smyth", "A-hoare",
    "A-egli-milner",
})


# cex-hunt: seeds per pass, each running every hunted claim once.
HUNT_SEEDS = 16
HUNT_COLLECT = 5

# Stated non-theorems hunted besides the registry's NEG entries.  As in
# ``multirel find-cex``, every slot is a multirelation X -> Y.
ADHOC = (
    # the README's find-cex query
    ("adhoc-alpha-peleg", "a(R * S) == a(R) ; a(S)", "RS"),
    # Peleg composition is not commutative
    ("adhoc-peleg-comm", "(R * S) == (S * R)", "RS"),
    # up-closure does not split Peleg composition
    ("adhoc-up-peleg", "up(R * S) == (up(R) * up(S))", "RS"),
    # Kleisli and Peleg composition differ off the deterministic classes
    ("adhoc-kleisli-peleg", "(R @ S) == (R * S)", "RS"),
    # Peleg composition distributes over unions only for inner
    # deterministic right operands (L3.2-quantaloid-inner-det)
    ("adhoc-peleg-left-distrib", "(R * (S | T)) == ((R * S) | (R * T))", "RST"),
)


# ---------------------------------------------------------------------------
# Speed sampling

# Every SAMPLE_INTERVAL_S of wall time a signal handler runs one fixed
# calibration slice and records how long it took.  REF_SLICE_S is the mean
# slice time on the reference machine (see README.md), so a time scaled by
# REF_SLICE_S / (mean slice time while it was measured) reads as seconds on
# that machine at its usual speed.
SAMPLE_INTERVAL_S = 0.01
REF_SLICE_S = 0.000275
_CAL_STEPS = 200
LAW_SLICE_MARGIN = 2


def calibration_slice(table={}):
    """Fixed interpreter work of the kinds the program does most: dict
    lookups on tuple keys, small frozensets and int arithmetic."""
    acc = 0
    s = frozenset()
    for i in range(_CAL_STEPS):
        k = (i & 31, (i >> 5) & 7)
        table[k] = table.get(k, 0) + 1
        s = s | {i & 15}
        acc += len(s & {1, 3, 5}) + (i * 2654435761 & 0xFF)
    return acc


class SpeedSampler:
    """Samples the speed the host gives this process while it is timed.

    The benchmark's host is shared: its speed switches between states up to
    twice apart, every few tens of milliseconds, and the mix drifts over
    minutes.  A calibration slice at a fixed wall-clock interval sees the
    same speed as the program around it, so a wall time times
    ``scale()`` measures the program's work, not the host's load.
    ``clock()`` leaves out the time spent in slices.
    """

    def __init__(self):
        self.slices: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        entered = time.perf_counter()
        calibration_slice()
        done = time.perf_counter()
        self.slices.append(done - entered)
        self.spent += time.perf_counter() - entered

    def start(self):
        self._previous = _signal.signal(_signal.SIGALRM, self._sample)
        _signal.setitimer(_signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        _signal.setitimer(_signal.ITIMER_REAL, 0)
        _signal.signal(_signal.SIGALRM, self._previous)

    def clock(self):
        """Wall time less the time spent in calibration slices."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def scale(self, first=0, last=None):
        """Factor from wall time to reference time, over the slices
        ``first`` to ``last`` (one more is taken if there are none)."""
        first = max(first, 0)
        if len(self.slices) <= first:
            self._sample(None, None)
        taken = self.slices[first:last]
        return REF_SLICE_S * len(taken) / sum(taken)


def setup(clock=time.perf_counter):
    """Import the program from this checkout and build the registry."""
    sys.path.insert(0, SRC)
    started = clock()
    try:
        import multirel
        import multirel.cli
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import multirel from {SRC}: {e}")
    laws = multirel.registry()
    setup_s = clock() - started
    if not multirel.__file__.startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: multirel imported from {multirel.__file__}, not {SRC}")
    return multirel, laws, setup_s


# ---------------------------------------------------------------------------
# Workloads


def adhoc_laws(multirel):
    return [
        multirel.Law(
            id=law_id, kind="neg", anchor=claim, claim=claim,
            slots=tuple(multirel.Slot(n, "mrel", "X", "Y") for n in names),
            expected="fail", density=0.3,
        )
        for law_id, claim, names in ADHOC
    ]


def hunt_seeds(seed):
    return [seed * HUNT_SEEDS + k for k in range(HUNT_SEEDS)]


def run_pass(multirel, laws, workload, seed, check, law_ids=None, main=None,
             clock=time.perf_counter):
    """Run one pass; returns (pass seconds, laws run, report dicts, canonical text).

    ``check`` is the function each verdict is requested through, so the
    caller can time or trace it; ``main`` likewise stands for ``cli.main``.
    The pass is timed with ``clock``.
    ``law_ids`` narrows the registry laws a registry workload runs
    (registry-2x2 leaves out ``SKIP_2X2`` by default).  The canonical text
    is the report the program prints without timing; passes of one commit
    and seed agree on it byte for byte.
    """
    import io
    import json
    from contextlib import redirect_stdout
    from unittest import mock

    if workload == "registry-2x2" and law_ids is None:
        law_ids = [law.id for law in laws if law.id not in SKIP_2X2]
    if law_ids is not None:
        missing = set(law_ids) - {law.id for law in laws}
        if missing:
            raise ValueError(f"laws not in the registry: {sorted(missing)}")
        laws = [law for law in laws if law.id in law_ids]
    if workload == "registry-2x2":
        cli = multirel.cli
        out = io.StringIO()
        argv = ["check", "--all", "--sizes", "2,2", "--seed", str(seed), "--json"]
        # the CLI looks both names up in its own module at call time
        with mock.patch.object(cli, "registry", lambda: list(laws)), \
                mock.patch.object(cli, "check", check):
            started = clock()
            with redirect_stdout(out):
                (main or cli.main)(argv)
            pass_s = clock() - started
        text = out.getvalue()
        return pass_s, laws, json.loads(text)["reports"], text
    if workload == "registry-3x3":
        started = clock()
        reports = [check(law, sizes=(3, 3), seed=seed) for law in laws]
        pass_s = clock() - started
        payload = {"seed": seed, "sizes": [3, 3], "reports": [r.to_json() for r in reports]}
    elif workload == "cex-hunt":
        laws = [law for law in laws if law.kind == "neg"] + adhoc_laws(multirel)
        started = clock()
        reports = [
            check(law, sizes=(3, 3), seed=s, collect=HUNT_COLLECT)
            for s in hunt_seeds(seed)
            for law in laws
        ]
        pass_s = clock() - started
        payload = {"seeds": hunt_seeds(seed), "reports": [r.to_json() for r in reports]}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    text = json.dumps(payload, indent=2) + "\n"
    return pass_s, laws, payload["reports"], text


def verify(laws, reports):
    """Count the pass's failed operations: laws not as declared, skipped
    verdicts, and witnesses that do not fail again when re-loaded from
    their JSON."""
    from multirel.dsl import env_from_json, eval_term, parse

    by_id = {law.id: law for law in laws}
    out = {"not_declared": 0, "skipped": 0, "witnesses": 0, "not_refailing": 0}
    for rep in reports:
        out["not_declared"] += not rep["as_declared"]
        out["skipped"] += rep["verdict"] == "skipped"
        law = by_id[rep["law"]]
        claim = parse(law.claim)
        guard = parse(law.guard) if law.guard else None
        for cex in rep["counterexamples"]:
            out["witnesses"] += 1
            slots = cex["slots"]
            env = env_from_json({
                "carriers": cex["carriers"],
                "rels": {n: v for n, v in slots.items() if "pairs" in v},
                "mrels": {n: v for n, v in slots.items() if "rows" in v},
            })
            guarded = guard is None or bool(eval_term(guard, env))
            if not guarded or bool(eval_term(claim, env)):
                out["not_refailing"] += 1
    return out


def timed(fn, durations, clock=time.perf_counter, sampler=None):
    """Wrap ``fn`` to append each call's duration to ``durations``; with a
    sampler, as (duration, first slice, end slice) of the slices taken
    during the call."""
    def wrapper(*args, **kwargs):
        first = len(sampler.slices) if sampler else 0
        started = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            took = clock() - started
            durations.append((took, first, len(sampler.slices)) if sampler else took)

    return wrapper


def main(argv):
    if argv == ["--setup-only"]:
        sampler = SpeedSampler()
        sampler.start()
        _, _, setup_s = setup(sampler.clock)
        sampler.stop()
        print('{"setup_s": %r, "setup_wall_s": %r}' % (setup_s * sampler.scale(), setup_s))
        return 0
    workload, seed = argv[0], int(argv[1])
    trace_file = argv[3] if argv[2:3] == ["--trace-file"] else None
    # traced passes are not scaled: slices would count as self time of
    # whichever span they interrupt
    sampler = None if trace_file else SpeedSampler()
    clock = sampler.clock if sampler else time.perf_counter
    if sampler:
        sampler.start()
    multirel, laws, setup_s = setup(clock)
    setup_scale = sampler.scale() if sampler else 1.0
    registry_call = clock()
    multirel.registry()
    registry_call = clock() - registry_call
    pass_slices = len(sampler.slices) if sampler else 0

    import hashlib
    import json
    import resource

    durations: list[float] = []
    check, main_fn, tracer = multirel.check, None, None
    if trace_file:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        check = tracer.wrap("laws.check", check)
        main_fn = tracer.wrap("cli.main", multirel.cli.main)
    try:
        pass_s, ran, reports, text = run_pass(
            multirel, laws, workload, seed, timed(check, durations, clock, sampler),
            main=main_fn, clock=clock,
        )
    finally:
        if tracer:
            tracer.uninstall()
        if sampler:
            sampler.stop()
    if sampler:
        scale = sampler.scale(pass_slices)
        # a law check is scaled by the slices taken during it and by
        # LAW_SLICE_MARGIN more on either side: a speed state lasts longer
        # than most checks
        law_s = [t * sampler.scale(first - LAW_SLICE_MARGIN, end + LAW_SLICE_MARGIN)
                 for t, first, end in durations]
    else:
        scale, law_s = 1.0, durations
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "setup_s": setup_s * setup_scale,
        "setup_wall_s": setup_s,
        "pass_s": pass_s * scale,
        "pass_wall_s": pass_s,
        "law_s": law_s,
        "laws": len(reports),
        "tuples": sum(r["checked"] + r["skipped_by_condition"] for r in reports),
        "checked": sum(r["checked"] for r in reports),
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "rss_mb": rss_mb,
        "registry_call_s": registry_call,
    }
    if tracer:
        result["layers"], group = tracing.layer_metrics(tracer)
        tracer.write(trace_file, group)
    result.update(verify(ran, reports))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    finally:
        # on every way out: a SIGALRM after the interpreter has dropped the
        # sampler's handler would kill the process and hide its error
        _signal.setitimer(_signal.ITIMER_REAL, 0)
    sys.exit(code)
