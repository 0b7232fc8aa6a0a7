"""Outside-in span tracing of the mmreach layers.

``Tracer.install`` replaces every public function of the ``mmreach``
modules, plus a few hot methods, with a wrapper that records a span
``[name, start, end, parent]`` in memory. A ``from .x import y`` binding is
a second reference to the same function object, so the wrapper is bound
under every module name where the original is found; that is where callers
look it up (``mmreach.multiorder.transform``, ``mmreach.cli.reach_intersection``).

Spans are kept in memory and written out once, by ``Tracer.dump``.
``self_times`` and ``layer_metrics`` turn a dumped trace into per-layer
numbers. Nothing here edits the program's files.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter

MODULES = ("cli", "config", "decomp", "embed", "exprlang", "geometry",
           "multiorder", "oracle", "sysdef")

# hot methods that mark a layer boundary: (module, class, method)
METHODS = (
    ("decomp", "Decomposition", "evaluate_component"),
    ("decomp", "Decomposition", "evaluate"),
    ("sysdef", "SystemDef", "eval_field_batch"),
)

EVAL = "decomp.Decomposition.evaluate_component"
FIELD_BATCH = "sysdef.SystemDef.eval_field_batch"
SAMPLERS = ("oracle.sample_endpoints", "oracle.backward_witnesses")


def _count_rk4_steps(counters, arguments, result):
    counters["embed.rk4_steps"] += len(result.times) - 1


def _count_field_rows(counters, arguments, result):
    counters["oracle.field_rows"] += len(arguments["X"])


def _count_samples(counters, arguments, result):
    counters["oracle.trajectories"] += arguments["cfg"].count
    counters["oracle.divergent"] += getattr(result, "divergent", 0)


def _count_audit(counters, arguments, result):
    counters["oracle.audit_points"] += result.total


# counters read off the arguments or result of a traced call
HOOKS = {
    "embed.integrate": _count_rk4_steps,
    FIELD_BATCH: _count_field_rows,
    "oracle.sample_endpoints": _count_samples,
    "oracle.backward_witnesses": _count_samples,
    "oracle.audit_containment": _count_audit,
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()

    def wrap(self, name, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self):
        """Wrap the public functions of ``MODULES`` and the ``METHODS``."""
        root = importlib.import_module("mmreach")
        modules = [importlib.import_module(f"mmreach.{m}") for m in MODULES]
        originals = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, self.wrap(f"{short}.{name}", obj))
        for mod in [root, *modules]:
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"mmreach.{mod_name}"), cls_name)
            setattr(cls, meth, self.wrap(f"{mod_name}.{cls_name}.{meth}",
                                         getattr(cls, meth)))

    def to_jsonable(self):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[index[n], a, b, p] for n, a, b, p in self.spans],
            "counters": dict(self.counters),
        }

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_jsonable(), fh, separators=(",", ":"))


def load_spans(doc):
    """Inverse of ``Tracer.to_jsonable``: (spans, counters)."""
    names = doc["names"]
    return [[names[n], a, b, p] for n, a, b, p in doc["spans"]], Counter(doc["counters"])


def self_times(spans):
    """Per span: its duration minus the part of it its child spans cover.

    Child intervals are clipped to the parent and merged, so overlapping
    children (from another thread) are not subtracted twice.
    """
    children = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def outermost(spans, name):
    """Indices of spans called ``name`` with no ancestor of the same name."""
    picked = []
    for i, span in enumerate(spans):
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            picked.append(i)
    return picked


def layer_metrics(spans, counters):
    """Per-layer numbers of one traced CLI run (seconds, counts, ratios)."""
    own = self_times(spans)

    def durations(*names):
        return [spans[i][2] - spans[i][1] for n in names for i in outermost(spans, n)]

    def total(*names):
        return sum(durations(*names), 0.0)

    def self_sum(*names):
        return sum((own[i] for n in names for i in outermost(spans, n)), 0.0)

    evals = durations(EVAL)
    eval_s = sum(evals)
    integrate_s = total("embed.integrate")
    steps = counters["embed.rk4_steps"]
    members = durations("multiorder.reach_parallelotope")
    clips = durations("geometry.clip_intersection_2d")
    sample_s = total(*SAMPLERS)
    traj_steps = counters["oracle.field_rows"] // 4  # four RK4 stages per step
    trajectories = counters["oracle.trajectories"]
    audit_points = counters["oracle.audit_points"]
    return {
        "decomp.evals": len(evals),
        "decomp.eval_s": eval_s,
        "decomp.eval_us": 1e6 * eval_s / len(evals) if evals else 0.0,
        "decomp.build_s": total("decomp.make_decomposition"),
        "embed.rk4_steps": steps,
        "embed.integrate_s": integrate_s,
        "embed.self_s": self_sum("embed.integrate"),
        "embed.step_us": 1e6 * integrate_s / steps if steps else 0.0,
        "multiorder.members": len(members),
        "multiorder.member_max_s": max(members, default=0.0),
        "geometry.clips": len(clips),
        "geometry.clip_s": sum(clips, 0.0),
        "oracle.traj_steps": traj_steps,
        "oracle.sample_s": sample_s,
        "oracle.traj_steps_per_s": traj_steps / sample_s if sample_s else 0.0,
        "oracle.field_s": total(FIELD_BATCH),
        "oracle.self_s": self_sum(*SAMPLERS),
        "oracle.divergent": counters["oracle.divergent"],
        "oracle.witness_yield": audit_points / trajectories if trajectories else 0.0,
        "oracle.audit_points": audit_points,
        "oracle.audit_s": total("oracle.audit_containment"),
        "config.load_s": total("config.load_config"),
        "sysdef.transform_s": total("sysdef.transform"),
        "cli.self_s": sum(own[i] for i, s in enumerate(spans) if s[0].startswith("cli.")),
    }


# counts that must repeat exactly from run to run of the same code
EXACT_COUNTS = ("decomp.evals", "embed.rk4_steps", "oracle.traj_steps",
                "multiorder.members", "geometry.clips")
