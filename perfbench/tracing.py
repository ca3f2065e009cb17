"""Span tracing of platoonflow layers, applied from outside the package.

The benchmark wraps the functions each layer exposes to its callers (the
engine phases ``step`` calls, the controller entry points, the kernel
entry points, the CLI writers, the analysis helpers and the ``verify``
checks).  No engine file is edited: every module attribute that is bound
to a wrapped function is rebound to a timing wrapper.

Per-call layers fire hundreds of thousands of times per pass, so every
span name is aggregated as (calls, inclusive seconds, self seconds);
self time excludes the time of wrapped spans nested inside.  Individual
spans (name, start, end, parent, pass) are kept only for the coarse
names in ``RECORDED`` and the ``verify`` spans, in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import gc
import sys
import time
import types
from dataclasses import dataclass, field

# Engine phases in the order ``platoonflow.sim.step`` calls them.
SIM_PHASES = (
    ("decide", "_decide"),
    ("integrate", "_integrate"),
    ("exits", "_process_exits"),
    ("audit", "_audit"),
    ("resequence", "resequence"),
    ("spawn", "try_spawn"),
    ("record", "_record"),
)

# Counts that must repeat exactly between runs of the same code and seed;
# a difference is a change of behaviour, never noise.
EXACT_COUNTS = ("sim.vsteps", "controller.split_verdicts",
                "controller.relax_verdicts", "cli.trajectory_csv.bytes",
                "svgplot.bytes", "analysis.records_by_time.calls")

# Span names whose individual spans are stored (besides verify.*); all
# other names are only aggregated.
RECORDED = {
    "sim.run", "cli.main", "cli.parse_config", "cli.trajectory_csv",
    "cli.events_csv", "cli.metrics", "svgplot.render", "analysis.summarize",
    "analysis.records_by_time", "analysis.records_by_vehicle",
}


# Order of the numbers a Tracer keeps per span name.
FIELDS = {"calls": 0, "incl": 1, "self": 2}


@dataclass
class Tracer:
    """Aggregated span statistics plus the coarse spans of one run.

    ``stats`` maps a span name to [calls, inclusive s, self s] and only
    grows; ``snapshot`` copies it so that a unit of work is the
    difference of two snapshots.
    """

    stats: dict[str, list] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    checks: list[tuple[str, str, bool, float]] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    pass_index: int = 0
    first_result: object = None
    # One child-time accumulator per open span; the bottom one is the root.
    _child: list[float] = field(default_factory=lambda: [0.0])
    _open: list[int] = field(default_factory=list)

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def snapshot(self) -> dict:
        return {"stats": {k: tuple(v) for k, v in self.stats.items()},
                "counts": dict(self.counts), "checks": len(self.checks)}

    def since(self, before: dict) -> dict:
        """Statistics of the work done after snapshot ``before``."""
        now = self.snapshot()
        zero = (0, 0.0, 0.0)
        return {
            "stats": {k: tuple(a - b for a, b in
                               zip(v, before["stats"].get(k, zero)))
                      for k, v in now["stats"].items()},
            "counts": {k: v - before["counts"].get(k, 0)
                       for k, v in now["counts"].items()},
            "checks": self.checks[before["checks"]:],
        }

    def span(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(args)`` runs just before the span opens; its return
        value is handed to ``after(result, token)``, which runs just
        after the span closes.
        """
        child = self._child
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        recorded = name in RECORDED or name.startswith("verify.")

        if before is None and after is None and not recorded:
            def wrapper(*args, **kwargs):
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    inner = child.pop()
                    child[-1] += dur
                    st[0] += 1
                    st[1] += dur
                    st[2] += dur - inner
            wrapper.__wrapped__ = fn
            return wrapper

        opened = self._open
        spans = self.spans

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            if recorded:
                opened.append(len(spans))
                spans.append({"name": name, "pass": self.pass_index,
                              "parent": opened[-2] if len(opened) > 1
                              else None})
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                inner = child.pop()
                child[-1] += dur
                st[0] += 1
                st[1] += dur
                st[2] += dur - inner
                if recorded:
                    rec = spans[opened.pop()]
                    rec["start"] = t0
                    rec["end"] = t1
            if after is not None:
                after(result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def rebind(original, replacement) -> int:
    """Point every ``platoonflow`` module name bound to ``original`` at
    ``replacement``; return how many bindings changed."""
    changed = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "platoonflow"
                                  or modname.startswith("platoonflow.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement
                changed += 1
    return changed


def instrument(tracer: Tracer) -> None:
    """Wrap every traced layer of the imported ``platoonflow`` package.

    A target the package no longer has is listed in ``tracer.absent``
    so that its metrics are reported as absent rather than as zero.
    """
    import platoonflow.analysis as analysis
    import platoonflow.cli as cli
    import platoonflow.controller as controller
    import platoonflow.sim as sim
    import platoonflow.svgplot as svgplot
    import platoonflow.verify as verify

    kernels = getattr(controller, "kernels", None)
    if kernels is None:
        import platoonflow._kernels_py as kernels

    def wrap(module, attr, name, before=None, after=None):
        original = getattr(module, attr, None)
        if original is None:
            tracer.absent.append(name)
            return
        wrapped = tracer.span(name, original, before, after)
        if not rebind(original, wrapped):
            # A compiled kernel module may live outside the package
            # namespace scan; bind on the module itself.
            setattr(module, attr, wrapped)

    def keep_first(result, token):
        if tracer.first_result is None:
            tracer.first_result = result

    def count_vsteps(args):
        tracer.add("sim.vsteps", len(args[0].vehicles))

    feasible = getattr(getattr(controller, "FeasibilityVerdict", None),
                       "FEASIBLE", None)

    def count_verdicts(decision, token):
        verdict = decision.verdict
        if verdict is feasible:  # the common case, kept cheap
            return
        if verdict.splits:
            tracer.add("controller.split_verdicts")
        elif verdict.name == "DEADLINE_SAFETY_CONFLICT":
            tracer.add("controller.relax_verdicts")

    def count_bytes(key):
        def after(text, token):
            tracer.add(key, len(text.encode()))
        return after

    def vsteps_so_far(args):
        return tracer.counts.get("sim.vsteps", 0)

    def corpus_vsteps(result, token):
        tracer.add("verify.corpus_vsteps",
                   tracer.counts.get("sim.vsteps", 0) - token)

    def corpus_so_far(args):
        st = tracer.stats.get("verify.corpus_build")
        return st[1] if st is not None else 0.0

    def note_check(attr):
        def after(result, token):
            # The shared corpus is built inside whichever check needs it
            # first; its time is reported once, as verify.corpus_build.
            corpus = corpus_so_far(None) - token
            tracer.checks.append((attr, result.name, result.passed, corpus))
        return after

    wrap(sim, "run", "sim.run", after=keep_first)
    wrap(sim, "step", "sim.step", before=count_vsteps)
    for label, attr in SIM_PHASES:
        wrap(sim, attr, f"sim.{label}")
    wrap(controller, "solve_follower_control", "controller.follower",
         after=count_verdicts)
    wrap(controller, "leader_control", "controller.leader")
    wrap(kernels, "follower_decision", "kernels.follower")
    wrap(kernels, "leader_decision", "kernels.leader")
    wrap(cli, "main", "cli.main")
    wrap(cli, "parse_config", "cli.parse_config")
    wrap(cli, "trajectory_csv_text", "cli.trajectory_csv",
         after=count_bytes("cli.trajectory_csv.bytes"))
    wrap(cli, "events_csv_text", "cli.events_csv")
    wrap(cli, "metrics_text", "cli.metrics")
    wrap(svgplot, "render_timespace", "svgplot.render",
         after=count_bytes("svgplot.bytes"))
    wrap(analysis, "summarize", "analysis.summarize")
    wrap(analysis, "records_by_time", "analysis.records_by_time")
    wrap(analysis, "records_by_vehicle", "analysis.records_by_vehicle")
    wrap(analysis, "brute_force_follower", "analysis.oracle")

    corpus_cls = getattr(verify, "RunCorpus", None)
    if corpus_cls is None or not hasattr(corpus_cls, "build"):
        tracer.absent.append("verify.corpus_build")
    else:
        corpus_cls.build = tracer.span("verify.corpus_build",
                                       corpus_cls.build, vsteps_so_far,
                                       corpus_vsteps)
    for attr in [a for a in vars(verify) if a.startswith("check_")]:
        wrap(verify, attr, f"verify.{attr}", corpus_so_far, note_check(attr))


_NOT_DATA = (type, types.ModuleType, types.FunctionType,
             types.BuiltinFunctionType)


def deep_size(root) -> int:
    """Bytes held by ``root`` and everything reachable from it, counting
    each object once and skipping classes, modules and functions."""
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _NOT_DATA):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total
