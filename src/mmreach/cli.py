"""Command-line front end: check, reach, and verify subcommands.

``reach`` runs the configured pipeline (``multiorder.run_reach``) and writes
machine-readable results (JSON, CSV area curve, plain vertex files for
plotting). ``verify`` samples trajectories against the freshly computed
over-approximation and exits 2 on any soundness violation, distinguishing
that from crashes and from an audit that found no point to check (exit 1).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ProblemConfig, load_config, preset_names
from .embed import ReachSpec, reach_box
from .errors import ConfigError, MmreachError
from .geometry import (
    Box,
    Parallelotope,
    RegionIntersection,
    UnionInitialSet,
    convex_hull_2d,
    ptope_polygon,
)
from .multiorder import ReachOutcome, reach_parallelotope, reach_plan, run_reach


def _initial_set_jsonable(cfg: ProblemConfig):
    init = cfg.initial_set
    if isinstance(init, list):
        return {"type": "vertices", "points": [list(map(float, v)) for v in init]}
    out = init.to_jsonable()
    out["type"] = cfg.initial_kind
    return out


def _method_options_jsonable(options):
    out = {}
    for key, value in options.items():
        if isinstance(value, Box):
            out[key] = value.to_jsonable()
        else:
            out[key] = value
    return out


def result_json(cfg: ProblemConfig, outcome: ReachOutcome, seed, timestamp=None):
    doc = {
        "meta": {
            "tool": "mmreach",
            "version": __version__,
            "timestamp": timestamp if timestamp is not None else time.time(),
            "seed": seed,
            "dt": cfg.spec.dt,
            "horizon": cfg.spec.horizon,
            "direction": cfg.spec.direction,
        },
        "system": {
            "name": cfg.system.name,
            "n": cfg.system.n,
            "m": cfg.system.m,
            "field": cfg.system.field_sources(),
            "w_lo": [float(v) for v in cfg.system.dist.lo],
            "w_hi": [float(v) for v in cfg.system.dist.hi],
        },
        "initial_set": _initial_set_jsonable(cfg),
        "method": {
            "decomposition": cfg.method,
            "kind": outcome.kind,
            "options": _method_options_jsonable(cfg.method_options),
        },
        "boxes": [{"t": t, **box.to_jsonable()} for t, box in outcome.boxes],
        "parallelotopes": [p.to_jsonable() for p in outcome.parallelotopes],
    }
    if outcome.intersection is not None:
        doc["intersection_polygon"] = outcome.intersection.to_jsonable()
    if outcome.areas:
        doc["area_curve"] = [[k + 1, a] for k, a in enumerate(outcome.areas)]
    if outcome.volume is not None:
        doc["volume"] = outcome.volume
        doc["volume_ci95"] = outcome.volume_ci
    return doc


def _write_outputs(outcome: ReachOutcome, doc, out_dir, quiet):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result_path = out / "result.json"
    result_path.write_text(json.dumps(doc, indent=2) + "\n")
    written = [result_path]
    for idx, ptope in enumerate(outcome.parallelotopes, start=1):
        if ptope.dim == 2:
            path = out / f"parallelotope_{idx:02d}.txt"
            poly = ptope_polygon(ptope)
            np.savetxt(path, poly.vertices, fmt="%.17g")
            written.append(path)
    if outcome.intersection is not None:
        path = out / "intersection.txt"
        np.savetxt(path, outcome.intersection.vertices, fmt="%.17g")
        written.append(path)
    if outcome.areas:
        path = out / "area_curve.csv"
        with path.open("w") as fh:
            fh.write("k,area\n")
            for k, a in enumerate(outcome.areas, start=1):
                fh.write(f"{k},{a:.17g}\n")
        written.append(path)
    if not quiet:
        for path in written:
            print(f"wrote {path}")
    return written


def _print_summary(outcome: ReachOutcome, quiet):
    if quiet:
        return
    for t, box in outcome.boxes:
        print(f"box at t={t:.17g}: lo={[float(v) for v in box.lo]} hi={[float(v) for v in box.hi]}")
    for idx, p in enumerate(outcome.parallelotopes, start=1):
        area = ptope_polygon(p).area() if p.dim == 2 else float("nan")
        print(f"parallelotope {idx}: lo={[float(v) for v in p.coords.lo]} "
              f"hi={[float(v) for v in p.coords.hi]} area={area:.6g}")
    if outcome.areas:
        print(f"intersection area: {outcome.areas[-1]:.6g}")


def _scaled_region(region, scale):
    """Shrink an audit region about its center (debug aid for verify)."""
    if scale == 1.0:
        return region
    def shrink(obj):
        if isinstance(obj, Box):
            c = obj.center
            return Box(c - scale * (c - obj.lo), c + scale * (obj.hi - c))
        if isinstance(obj, Parallelotope):
            return Parallelotope(obj.shape, shrink(obj.coords))
        raise ConfigError(f"cannot scale region of type {type(obj).__name__}")
    if isinstance(region, (RegionIntersection, UnionInitialSet)):
        return type(region)(tuple(shrink(p) for p in region.members))
    return shrink(region)


def _verify_rejection(cfg):
    """Why ``verify`` rejects ``cfg`` before it reaches, or None. ``reach``
    runs such a config, so ``check`` passes it with a note."""
    init = cfg.initial_set
    if isinstance(init, list) and len(init) > 1 and cfg.system.n != 2:
        # the audit samples the hull of the vertices, built in the plane only
        return "verify supports vertex initial sets only for planar systems"
    if cfg.spec.direction == "backward" and cfg.search_box is None:
        # the witness search draws its starts from that box
        return "backward verify needs sampling.search_lo/search_hi"
    return None


def cmd_check(args):
    cfg = load_config(args.config)
    # take the run's first step from every member it reaches: a transformed
    # field may not compile, a decomposition method may reject the field it
    # is given, and the step itself may fail; a horizon of 0 takes no step
    spec = ReachSpec(min(cfg.spec.dt, cfg.spec.horizon), cfg.spec.dt,
                     cfg.spec.direction)
    for where, member in reach_plan(cfg.initial_set, cfg.transforms):
        reach = reach_parallelotope if isinstance(member, Parallelotope) else reach_box
        try:
            reach(cfg.system, member, spec, cfg.method, **cfg.method_options)
        except MmreachError as exc:
            raise ConfigError(str(exc), where) from exc
    if not args.quiet:
        print(f"configuration OK: system n={cfg.system.n} m={cfg.system.m}, "
              f"initial set {cfg.initial_kind}, horizon {cfg.spec.horizon}, "
              f"direction {cfg.spec.direction}")
        reason = _verify_rejection(cfg)
        if reason is not None:
            print(f"note: verify rejects this configuration: {reason}",
                  file=sys.stderr)
    return 0


def _apply_overrides(cfg: ProblemConfig, args):
    if args.dt is not None:
        cfg = dataclasses.replace(
            cfg, spec=ReachSpec(cfg.spec.horizon, args.dt, cfg.spec.direction)
        )
    if args.seed is not None:
        cfg = dataclasses.replace(
            cfg, sampling=dataclasses.replace(cfg.sampling, seed=args.seed)
        )
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    return cfg


def cmd_reach(args):
    cfg = _apply_overrides(load_config(args.config), args)
    outcome = run_reach(cfg)
    doc = result_json(cfg, outcome, cfg.sampling.seed)
    _write_outputs(outcome, doc, cfg.output_dir, args.quiet)
    _print_summary(outcome, args.quiet)
    return 0


def cmd_verify(args):
    # a negative or non-finite scale would fail only after the whole reach
    scale = args.debug_scale
    if not (math.isfinite(scale) and scale >= 0.0):
        raise ConfigError(f"--debug-scale must be finite and nonnegative, got {scale}")
    cfg = _apply_overrides(load_config(args.config), args)
    reason = _verify_rejection(cfg)
    if reason is not None:
        raise ConfigError(reason)
    # imported here so that check and reach load no oracle
    from .oracle import _beside, audit_containment, backward_witnesses, sample_endpoints

    init = cfg.initial_set
    if isinstance(init, list):
        # the bound covers the polytope spanned by the vertices, so the
        # audit must sample exactly that hull
        verts = np.array([np.asarray(v) for v in init])
        init = Box(verts[0], verts[0]) if len(verts) == 1 else convex_hull_2d(verts)
    if cfg.spec.direction == "backward":
        forward_spec = ReachSpec(cfg.spec.horizon, cfg.spec.dt, "forward")

        def sample():
            # `divergent` counts forward endpoints excluded from the audit; a
            # backward search trajectory that diverges cannot be a witness
            return backward_witnesses(cfg.system, cfg.initial_set, forward_spec,
                                      cfg.sampling, cfg.search_box), 0
    else:
        def sample():
            result = sample_endpoints(cfg.system, init, cfg.spec, cfg.sampling)
            return result.points, result.divergent
    # the oracle never reads the bound, so it may run beside the reach; a
    # failed reach still fails the run before the oracle's own error
    with _beside(sample, cfg.spec, cfg.sampling) as sampled:
        outcome = run_reach(cfg)
        region = _scaled_region(outcome.audit_region(), args.debug_scale)
        points, divergent = sampled()
    report = audit_containment(points, region)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = report.to_jsonable()
    doc["divergent"] = divergent
    doc["debug_scale"] = args.debug_scale
    (out / "verify_report.json").write_text(
        json.dumps(doc, indent=2, allow_nan=False) + "\n")
    if args.save_endpoints:
        header = ",".join(f"x{i + 1}" for i in range(cfg.system.n))
        np.savetxt(out / "endpoints.csv", points, delimiter=",", header=header,
                   comments="", fmt="%.17g")
    if report.total == 0:
        # an audit of no point shows nothing about the bound: a failure of
        # the run (exit 1), not a soundness violation (exit 2)
        count = cfg.sampling.count
        if cfg.spec.direction == "backward":
            raise MmreachError(f"no backward witness in {count} samples: "
                               f"nothing was audited")
        raise MmreachError(f"all {count} trajectories diverged: nothing was "
                           f"audited")
    if not args.quiet:
        print(f"audited {report.total} points: {report.violations} violations, "
              f"worst margin {report.worst_margin:.3e}")
    return 0 if report.violations == 0 else 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mmreach",
        description="Reachable-set over-approximation via monotone embeddings",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, extra in (
        ("check", cmd_check, False),
        ("reach", cmd_reach, True),
        ("verify", cmd_verify, True),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help=f"config file path or preset name {preset_names()}")
        p.add_argument("--quiet", action="store_true")
        if extra:
            p.add_argument("--seed", type=int, default=None,
                           help="override sampling seed")
            p.add_argument("--dt", type=float, default=None,
                           help="override integration step")
            p.add_argument("--out", default=None, help="output directory")
        if name == "verify":
            p.add_argument("--debug-scale", type=float, default=1.0,
                           help="shrink the audited region (plant a failure)")
            p.add_argument("--save-endpoints", action="store_true",
                           help="write the sampled endpoints to endpoints.csv")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MmreachError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
