"""Decomposition functions: tight (optimization-based), Jacobian-sign,
monotone pass-through, user closed forms, and piecewise combination.

A decomposition d(x, w, xh, wh) agrees with the field on the diagonal, is
nondecreasing in (x, w) and nonincreasing in (xh, wh) off-diagonal. The
embedding machinery in :mod:`mmreach.embed` consumes these evaluators
through ``Decomposition.embedding_field``, all 2n embedding components at
once. ``tight`` and ``combine`` evaluate them component by component; the
compiled methods (``closed_form``, ``jacobian_sign``, ``monotone``) in one
generated function, falling back to the component loop to name a
non-finite component.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import exprlang
from .errors import (
    DimensionMismatchError,
    EvalError,
    NotMonotoneError,
    OrderError,
    SignIndefiniteError,
    SizeLimitError,
)
from .geometry import Box

OPTIMIZER_TOL = 1e-8
CHECK_SLACK = 1e-7
CONSISTENCY_TOL = 1e-6

_GRID_DENSE = 9  # fallback search lattice, per free coordinate
_MAX_FREE_DIMS = 6
_MAX_PROBE_DIMS = 20  # the probe nests one loop per coordinate; Python allows 20
_DESCENT_MAX_ROUNDS = 500


def pair_order(x, w, xh, wh):
    """+1 when (x, w) <= (xh, wh), -1 for the reverse, OrderError otherwise."""
    le = operator.le
    if all(map(le, x, xh)) and all(map(le, w, wh)):
        return 1
    if all(map(le, xh, x)) and all(map(le, wh, w)):
        return -1
    raise OrderError(
        f"arguments are unordered: x={list(x)}, w={list(w)}, "
        f"xh={list(xh)}, wh={list(wh)}"
    )


def _sign_tol(f_plus, f_minus):
    return 1e-9 * max(1.0, abs(f_plus), abs(f_minus))


class Decomposition:
    """Evaluator d(x, w, xh, wh) tagged with its construction method.

    ``domain`` records the state box over which sign conditions were
    certified, when the construction is domain-dependent.
    """

    def __init__(self, system, method, component_fn, domain=None):
        self.system = system
        self.method = method
        self.n = system.n
        self.m = system.m
        self.domain = domain
        self._component_fn = component_fn
        self.w_lo = [float(v) for v in system.dist.lo]
        self.w_hi = [float(v) for v in system.dist.hi]

    def __repr__(self):
        return f"Decomposition(method={self.method!r}, n={self.n}, m={self.m})"

    def evaluate_component(self, i, x, w, xh, wh):
        value = self._component_fn(i, x, w, xh, wh)
        if not math.isfinite(value):
            raise EvalError(
                f"decomposition component {i + 1} is non-finite",
                f"at x={list(x)}, w={list(w)}, xh={list(xh)}, wh={list(wh)}",
            )
        return value

    def evaluate(self, x, w, xh, wh):
        x = [float(v) for v in x]
        w = [float(v) for v in w]
        xh = [float(v) for v in xh]
        wh = [float(v) for v in wh]
        if len(x) != self.n or len(xh) != self.n or len(w) != self.m or len(wh) != self.m:
            raise DimensionMismatchError("argument dimensions do not match system")
        return np.array(
            [self.evaluate_component(i, x, w, xh, wh) for i in range(self.n)]
        )

    def embedding_field(self, v):
        """The embedding field at the stacked ordered state v = lower ++ upper
        (2n floats), with w over its box [w_lo, w_hi]: the 2n floats
        d(lower, w_lo, upper, w_hi), then d(upper, w_hi, lower, w_lo).

        Evaluates component by component; a non-finite one raises EvalError.
        """
        n = self.n
        lower, upper = v[:n], v[n:]
        out = [0.0] * (2 * n)
        for i in range(n):
            out[i] = self.evaluate_component(i, lower, self.w_lo, upper, self.w_hi)
            out[n + i] = self.evaluate_component(i, upper, self.w_hi, lower, self.w_lo)
        return out


# --- tight construction -------------------------------------------------------


def _tight_component(system, i, x, w, xh, wh):
    sign = pair_order(x, w, xh, wh)
    minimize = sign > 0
    y = list(x)
    z = list(w)
    free = []  # (target list, index, lo, hi)
    for j in range(system.n):
        if j == i:
            continue
        a, b = (x[j], xh[j]) if minimize else (xh[j], x[j])
        if b > a:
            free.append((y, j, a, b))
    for k in range(system.m):
        a, b = (w[k], wh[k]) if minimize else (wh[k], w[k])
        if b > a:
            free.append((z, k, a, b))

    fi = system.component_fn(i)
    if not free:
        return fi(y, z)

    corner = _probe_signs(y, z, free, fi, minimize)
    if corner is not None:
        for (target, idx, _, _), value in zip(free, corner):
            target[idx] = value
        return fi(y, z)
    return _grid_descent(system, i, y, z, free, fi, minimize)


def _probe_signs(y, z, free, fi, minimize):
    """Finite-difference signs on the 3^k probe lattice.

    Returns the induced corner when every free coordinate is sign-stable,
    else None (at the first coordinate seen with both signs). Runs the
    generated ``probe`` for k = len(free).
    """
    k = len(free)
    if k > _MAX_PROBE_DIMS:
        raise SizeLimitError(
            f"tight subproblem has {k} free coordinates; the probe lattice refuses > {_MAX_PROBE_DIMS}"
        )
    return _kernel("probe", k)(y, z, free, fi, minimize)


def _grid_descent(system, i, y, z, free, fi, minimize):
    """Dense-grid search (vectorized over the lattice) plus coordinate
    descent refined to the optimizer tolerance, by the generated
    ``descend`` for k = len(free)."""
    k = len(free)
    if k > _MAX_FREE_DIMS:
        raise SizeLimitError(
            f"tight subproblem has {k} free coordinates; dense search refuses > {_MAX_FREE_DIMS}"
        )
    flip = 1.0 if minimize else -1.0
    axes = [_axis(lo, hi) for _, _, lo, hi in free]
    # the lattice rows in C order over the axes (meshgrid "ij" raveled)
    shape = (_GRID_DENSE,) * k
    X = np.empty(shape + (len(y),))
    W = np.empty(shape + (len(z),))
    X[...] = y
    W[...] = z
    for c, (target, idx, _, _) in enumerate(free):
        (X if target is y else W)[..., idx] = np.reshape(
            axes[c], [-1 if a == c else 1 for a in range(k)])
    values = flip * system.component_batch_fn(i)(X.reshape(-1, len(y)),
                                                 W.reshape(-1, len(z)))
    best = int(values.argmin())
    point = [a[r] for a, r in zip(axes, np.unravel_index(best, shape))]
    return _kernel("descend", k)(y, z, free, fi, flip, point, float(values[best]))


def _axis(lo, hi):
    """``np.linspace(lo, hi, _GRID_DENSE)`` as a list of floats, bit for
    bit: lo + r * step, with numpy's branch for a step that underflows to 0,
    and hi last."""
    span = _GRID_DENSE - 1
    delta = hi - lo
    step = delta / span
    if step == 0:
        return [r / span * delta + lo for r in range(span)] + [hi]
    return [r * step + lo for r in range(span)] + [hi]


# The loops of the tight search, written out for k free coordinates. Free
# coordinate c is the locals t<c>[i<c>] (its slot in y or z), lo<c> and hi<c>;
# the probe adds b/u/d/s<c> (base, base + step, base - step, step) and its
# sign flags pos<c>, neg<c>; the descent adds p<c> (its point) and s<c> (its
# step). The probe's tolerance is _sign_tol(fp, fm) * 2.0 * step inline, its
# scale max(1.0, |fp|, |fm|) by comparisons, NaN included; the descent clamps
# as min(hi, max(lo, cand)) would, NaN included.

_PROBE_LEVELS = """\
sl = FD_STEP * max(1.0, abs(lo{c}))
mid = 0.5 * (lo{c} + hi{c})
sm = FD_STEP * max(1.0, abs(mid))
sh = FD_STEP * max(1.0, abs(hi{c}))
L{c} = ((lo{c}, lo{c} + sl, lo{c} - sl, sl), (mid, mid + sm, mid - sm, sm),
      (hi{c}, hi{c} + sh, hi{c} - sh, sh))
"""

_PROBE_STEP = """\
t{c}[i{c}] = u{c}
fp = fi(y, z)
t{c}[i{c}] = d{c}
fm = fi(y, z)
t{c}[i{c}] = b{c}
fd = fp - fm
scale = 1.0
if fp > scale:
    scale = fp
elif -fp > scale:
    scale = -fp
if fm > scale:
    scale = fm
elif -fm > scale:
    scale = -fm
tol = 1e-9 * scale * 2.0 * s{c}
if fd > tol:
    if neg{c}:
        return None
    pos{c} = True
elif fd < -tol:
    if pos{c}:
        return None
    neg{c} = True
"""

_DESCENT_STEP = """\
cand = p{c} {op} s{c}
if not cand > lo{c}:
    cand = lo{c}
if not cand < hi{c}:
    cand = hi{c}
if cand != p{c}:
    t{c}[i{c}] = cand
    g = flip * fi(y, z)
    if g < best:
        best = g
        p{c} = cand
        improved = True
"""


def _indent(block, depth):
    return "".join("    " * depth + line + "\n" for line in block.splitlines())


def _probe_source(k):
    """``probe``: a loop over the three levels of each free coordinate, the
    last innermost (the lattice in ``itertools.product`` order); at each
    point the k central differences in coordinate order."""
    cs = range(k)
    src = "def probe(y, z, free, fi, minimize):\n"
    src += _indent("".join(f"(t{c}, i{c}, lo{c}, hi{c}), " for c in cs) + "= free", 1)
    src += _indent("".join(_PROBE_LEVELS.format(c=c) for c in cs), 1)
    src += _indent("".join(f"pos{c} = neg{c} = " for c in cs) + "False", 1)
    for c in cs:
        src += _indent(f"for b{c}, u{c}, d{c}, s{c} in L{c}:\n    t{c}[i{c}] = b{c}", c + 1)
    src += _indent("".join(_PROBE_STEP.format(c=c) for c in cs), k + 1)
    # a coordinate is nondecreasing unless only negative differences were seen
    low = ", ".join(f"lo{c} if pos{c} or not neg{c} else hi{c}" for c in cs)
    high = ", ".join(f"hi{c} if pos{c} or not neg{c} else lo{c}" for c in cs)
    return src + _indent(f"if minimize:\n    return [{low}]\nreturn [{high}]", 1)


def _descent_source(k):
    """``descend``: coordinate descent from the grid's best point, each round
    a step up then down per coordinate; the steps halve after a round
    without improvement."""
    cs = range(k)
    steps = f"max({', '.join(f's{c}' for c in cs)})" if k > 1 else "s0"
    src = "def descend(y, z, free, fi, flip, point, best):\n"
    src += _indent("".join(f"(t{c}, i{c}, lo{c}, hi{c}), " for c in cs) + "= free", 1)
    src += _indent("".join(f"p{c}, " for c in cs) + "= point", 1)
    src += _indent("".join(f"t{c}[i{c}] = p{c}\ns{c} = (hi{c} - lo{c}) / STEPS\n"
                           for c in cs), 1)
    src += _indent(f"for _ in range(ROUNDS):\n"
                   f"    if {steps} < TOL:\n"
                   f"        break\n"
                   f"    improved = False", 1)
    src += _indent("".join(_DESCENT_STEP.format(c=c, op="+")
                           + _DESCENT_STEP.format(c=c, op="-")
                           + f"t{c}[i{c}] = p{c}\n" for c in cs), 2)
    src += _indent("if not improved:\n" + "".join(f"    s{c} = 0.5 * s{c}\n" for c in cs), 2)
    return src + _indent("return flip * best", 1)


@functools.cache
def _kernel(name, k):
    """The generated ``probe`` or ``descend`` for k free coordinates, built
    on first use."""
    source = {"probe": _probe_source, "descend": _descent_source}[name](k)
    env = {"abs": abs, "max": max, "range": range, "FD_STEP": exprlang.FD_STEP,
           "STEPS": _GRID_DENSE - 1.0, "ROUNDS": _DESCENT_MAX_ROUNDS,
           "TOL": OPTIMIZER_TOL, "__builtins__": {}}
    exec(source, env)
    return env[name]


def tight_decomposition(system):
    """Optimization-defined decomposition: componentwise extremum of the
    field over the argument box with the own coordinate pinned.

    Coordinate-monotone subproblems (detected by finite-difference signs on a
    3^k probe lattice) resolve exactly at the induced corner; the rest fall
    back to a 9-per-axis grid search refined by coordinate descent to 1e-8.
    Evaluation at unordered argument pairs raises OrderError.
    """

    def component(i, x, w, xh, wh):
        return _tight_component(system, i, x, w, xh, wh)

    return Decomposition(system, "tight", component)


# --- Jacobian-sign and monotone constructions ---------------------------------


def _sampled_partials(system, domain, samples, seed):
    """Central differences of every off-diagonal state entry and every
    disturbance entry of the Jacobian at ``samples`` random points.

    Yields (i, is_state, j, x, w, fd, zero_tol) entry by entry: for each
    component i, its state entries j != i, then its disturbance entries.
    """
    if domain.dim != system.n:
        raise DimensionMismatchError(
            f"domain has dimension {domain.dim}, state dimension is {system.n}"
        )
    if samples < 1:
        raise DimensionMismatchError("need at least one sample point")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(domain.lo, domain.hi, size=(samples, system.n))
    ws = rng.uniform(system.dist.lo, system.dist.hi, size=(samples, system.m))
    for i in range(system.n):
        fi = system.component_fn(i)
        entries = [(True, j) for j in range(system.n) if j != i]
        entries += [(False, k) for k in range(system.m)]
        for is_state, j in entries:
            for x, w in zip(xs, ws):
                x, w = list(x), list(w)
                probe = (lambda v: fi(v, w)) if is_state else (lambda v: fi(x, v))
                fd, f_plus, f_minus = exprlang.central_difference(
                    probe, x if is_state else w, j, exprlang.FD_STEP)
                yield i, is_state, j, x, w, fd, _sign_tol(f_plus, f_minus)


def jacobian_sign_decomposition(system, domain, samples=200, seed=0):
    """Corner-selection decomposition for fields whose off-diagonal Jacobian
    signs are uniform over ``domain``.

    The sign of every off-diagonal state partial and every disturbance
    partial is estimated at ``samples`` random points; a sign-indefinite
    entry raises SignIndefiniteError naming the entry and two witnesses.
    """
    n, m = system.n, system.m
    # per component, each argument with a negative partial is read from its
    # hat copy: x_j from x_(n+j), w_k from w_(m+k)
    hats = [{} for _ in range(n)]
    seen = {}  # (i, kind, j, sign) -> latest witness point

    for i, is_state, j, x, w, fd, tol in _sampled_partials(system, domain,
                                                            samples, seed):
        if not abs(fd) > tol:  # within the zero tolerance, or NaN
            continue
        sign = 1 if fd > 0 else -1
        seen[(i, is_state, j, sign)] = (x, w, fd)
        kind = "x" if is_state else "w"
        if (i, is_state, j, -sign) in seen:
            raise SignIndefiniteError(
                f"dF{i + 1}/d{kind}{j + 1} changes sign over the sampled domain",
                entry=(i + 1, j + 1),
                witnesses=[seen[(i, is_state, j, 1)], seen[(i, is_state, j, -1)]],
            )
        if sign < 0:
            hats[i][exprlang.Var(kind, j)] = exprlang.Var(kind, (n if is_state else m) + j)

    exprs = [exprlang.ExprAst(exprlang.substitute(e.root, hats[i]), 2 * n, 2 * m)
             for i, e in enumerate(system.field)]
    return _Compiled(system, "jacobian_sign", exprs, domain)


def monotone_decomposition(system, domain, samples=200, seed=0):
    """Pass-through decomposition d = F for monotone systems.

    All off-diagonal state partials and all disturbance partials must be
    nonnegative at every sampled point; a violation raises NotMonotoneError
    with the witness.
    """
    for i, is_state, j, x, w, fd, tol in _sampled_partials(system, domain,
                                                            samples, seed):
        if fd < -tol:
            kind = "x" if is_state else "w"
            raise NotMonotoneError(
                f"dF{i + 1}/d{kind}{j + 1} = {fd:.3e} < 0 at a sampled point",
                witness=(x, w, fd),
            )

    return _Compiled(system, "monotone", system.field, domain)


# --- combination and closed forms ---------------------------------------------


def combine(d1: Decomposition, d2: Decomposition):
    """Piecewise combination: componentwise max of the two evaluators on the
    ordered side, min on the reversed side."""
    if d1.system is not d2.system:
        raise DimensionMismatchError(
            "decompositions reference different source systems"
        )

    def component(i, x, w, xh, wh):
        sign = pair_order(x, w, xh, wh)
        a = d1.evaluate_component(i, x, w, xh, wh)
        b = d2.evaluate_component(i, x, w, xh, wh)
        return max(a, b) if sign > 0 else min(a, b)

    domain = d1.domain if d1.domain is not None else d2.domain
    return Decomposition(d1.system, "combined", component, domain=domain)


def parse_closed_form(system, sources):
    """Parse closed-form component sources over (x, xh) and (w, wh).

    Convention: x1..xn are the first arguments, x(n+1)..x(2n) stand for
    xh1..xhn; likewise w(m+1)..w(2m) stand for wh1..whm.
    """
    return [exprlang.parse(src, 2 * system.n, 2 * system.m) for src in sources]


def closed_form_decomposition(system, exprs):
    """Decomposition from user expressions over 2n + 2m variables.

    Construction does not validate the order conditions; run
    :func:`check_decomposition` separately.
    """
    n, m = system.n, system.m
    if len(exprs) != n:
        raise DimensionMismatchError(
            f"expected {n} component expressions, got {len(exprs)}"
        )
    for i, expr in enumerate(exprs):
        if expr.n > 2 * n or expr.m > 2 * m:
            raise DimensionMismatchError(
                f"component {i + 1} references variables beyond 2n + 2m"
            )
    return _Compiled(system, "closed_form", exprs)


class _Compiled(Decomposition):
    """Decomposition whose component i is ``exprs[i]`` over (x, xh), (w, wh).

    Its embedding field is one generated function of v = lower ++ upper and
    w_lo ++ w_hi: the lower half is ``exprs``, the upper half the same trees
    with x_j and x_(n+j), w_k and w_(m+k) swapped.
    """

    def __init__(self, system, method, exprs, domain=None):
        fns = [e.scalar_fn() for e in exprs]

        def component(i, x, w, xh, wh):
            return fns[i](list(x) + list(xh), list(w) + list(wh))

        super().__init__(system, method, component, domain=domain)
        n, m = self.n, self.m
        swap = {}
        for kind, size in (("x", n), ("w", m)):
            for j in range(size):
                swap[exprlang.Var(kind, j)] = exprlang.Var(kind, size + j)
                swap[exprlang.Var(kind, size + j)] = exprlang.Var(kind, j)
        roots = [e.root for e in exprs]
        self._field = exprlang.scalar_list_fn(
            roots + [exprlang.substitute(r, swap) for r in roots])
        self._w = self.w_lo + self.w_hi

    def embedding_field(self, v):
        out = self._field(v, self._w)
        if math.isfinite(sum(out)):
            return out
        # a non-finite (or overflowing) sum: the loop names the component
        return super().embedding_field(v)


# --- validation ----------------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of the order/consistency audit of a decomposition."""

    probes: int
    seed: int
    consistency_residual: float
    violations_cond2: int
    violations_cond3: int
    violations_cond4: int
    witnesses: list = field(default_factory=list)

    @property
    def violations(self):
        return self.violations_cond2 + self.violations_cond3 + self.violations_cond4

    def ok(self):
        return self.violations == 0 and self.consistency_residual <= CONSISTENCY_TOL


def _ordered_pair(rng, lo, hi, gap_min):
    width = hi - lo
    gmin = np.minimum(gap_min, 0.25 * width)
    a = rng.uniform(lo, np.maximum(lo, hi - gmin))
    gap = rng.uniform(gmin, np.maximum(gmin, hi - a))
    return a, np.minimum(a + gap, hi)


def check_decomposition(d: Decomposition, probes=1000, seed=0, domain=None):
    """Audit diagonal consistency and the off-diagonal order conditions.

    Probes finite-difference signs of d at ``probes`` random ordered pairs
    (both orientations) drawn in ``domain`` (default: the decomposition's own
    domain, else the unit box). Violations beyond ``CHECK_SLACK`` are counted
    and up to 10 witnesses recorded.
    """
    if probes < 1:  # a check of no probe would pass vacuously
        raise DimensionMismatchError("need at least one probe")
    system = d.system
    n, m = d.n, d.m
    if domain is None:
        domain = d.domain if d.domain is not None else Box([-1.0] * n, [1.0] * n)
    rng = np.random.default_rng(seed)
    wbox = system.dist

    residual = 0.0
    for _ in range(probes):
        x = rng.uniform(domain.lo, domain.hi)
        w = rng.uniform(wbox.lo, wbox.hi)
        dv = d.evaluate(x, w, x, w)
        fv = system.eval_field(list(x), list(w))
        residual = max(residual, float(np.max(np.abs(dv - fv))))

    counts = {2: 0, 3: 0, 4: 0}
    witnesses = []
    gap_min = 1e-3
    # probes of a narrower axis would step the pair out of order
    x_active = [j for j in range(n) if domain.hi[j] - domain.lo[j] > 4.0 * gap_min]
    w_active = [k for k in range(m) if wbox.hi[k] - wbox.lo[k] > 4.0 * gap_min]

    def record(cond, i, j, side, fd):
        counts[cond] += 1
        if len(witnesses) < 10:
            witnesses.append((cond, i + 1, j + 1, side, fd))

    def fd_of(i, group, j, args):
        # group: 0 = x, 1 = w, 2 = xh, 3 = wh
        def f(v):
            return d.evaluate_component(i, *args[:group], v, *args[group + 1:])

        return exprlang.central_difference(f, args[group], j, exprlang.FD_STEP)[0]

    for p in range(probes):
        x_lo, x_hi = _ordered_pair(rng, domain.lo, domain.hi, gap_min)
        w_lo, w_hi = _ordered_pair(rng, wbox.lo, wbox.hi, gap_min)
        if p % 2 == 0:
            side = 1
            args = (list(x_lo), list(w_lo), list(x_hi), list(w_hi))
        else:
            side = -1
            args = (list(x_hi), list(w_hi), list(x_lo), list(w_lo))
        for i in range(n):
            for j in x_active:
                if j != i:
                    fd = fd_of(i, 0, j, args)
                    if fd < -CHECK_SLACK:
                        record(2, i, j, side, fd)
                fd = fd_of(i, 2, j, args)
                if fd > CHECK_SLACK:
                    record(3, i, j, side, fd)
            for k in w_active:
                fd = fd_of(i, 1, k, args)
                if fd < -CHECK_SLACK:
                    record(4, i, k, side, fd)
                fd = fd_of(i, 3, k, args)
                if fd > CHECK_SLACK:
                    record(4, i, k, side, fd)

    return CheckReport(
        probes=probes,
        seed=seed,
        consistency_residual=residual,
        violations_cond2=counts[2],
        violations_cond3=counts[3],
        violations_cond4=counts[4],
        witnesses=witnesses,
    )


def make_decomposition(system, method="tight", *, domain=None, samples=200,
                       seed=0, sources=None):
    """Factory used by the pipeline layers and the CLI."""
    if method == "tight":
        return tight_decomposition(system)
    if method == "jacobian_sign":
        if domain is None:
            raise DimensionMismatchError("jacobian_sign requires a domain box")
        return jacobian_sign_decomposition(system, domain, samples=samples, seed=seed)
    if method == "monotone":
        if domain is None:
            domain = Box([-2.0] * system.n, [2.0] * system.n)
        return monotone_decomposition(system, domain, samples=samples, seed=seed)
    if method == "closed_form":
        if not sources:
            raise DimensionMismatchError("closed_form requires component sources")
        return closed_form_decomposition(system, parse_closed_form(system, sources))
    raise DimensionMismatchError(f"unknown decomposition method {method!r}")
