"""Registry of scalar convex functions with analytic derivatives.

Each entry carries evaluators for the function and its first six
derivatives, each family's from one formula of the order k, a real
domain, and membership tags for the subadditive entropy classes.  The
divided-difference grids here feed the matrix derivative engine.  One
evaluator serves every order k: polynomials in closed form, else the
quotient recursion, which inside the order's Taylor band gives way to (and,
for a call all inside it, is skipped for) the mean-centered form (m the
nodes' mean) f^(k)(m)/k! + f^(k+2)(m) sum_i (x_i - m)^2 / (2 (k+2)!).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from typing import Callable

import numpy as np

from .errors import DomainError

# Class tags.
C2 = "C2"  # trace-functional subadditive class
C3 = "C3"  # operator-valued subadditive class
OPERATOR_CONVEX = "operator_convex"
OUTSIDE_CLASS = "outside_class"

# Derivative evaluators of functions defined on [0, inf) reject arguments
# below this floor; their derivatives diverge at zero.
DERIV_FLOOR = 1e-12

# Below this node spread, divided differences switch from quotient to
# derivative form; the quotient loses all precision as nodes merge.
COINCIDENCE_RTOL = 1e-7


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def contains(self, u):
        """Membership of a number, or elementwise of an array; NaN is outside."""
        u = np.asarray(u, dtype=float)
        above = u >= self.lo if self.lo_closed else u > self.lo
        below = u <= self.hi if self.hi_closed else u < self.hi
        return above & below

    def open_version(self) -> "Interval":
        return Interval(self.lo, self.hi, lo_closed=False, hi_closed=False)

    def __str__(self) -> str:
        lo_b = "[" if self.lo_closed else "("
        hi_b = "]" if self.hi_closed else ")"
        return f"{lo_b}{self.lo:g}, {self.hi:g}{hi_b}"


REAL_LINE = Interval(-np.inf, np.inf, lo_closed=False, hi_closed=False)
HALF_LINE = Interval(0.0, np.inf, lo_closed=True, hi_closed=False)


@dataclass(frozen=True)
class ScalarFunction:
    """A scalar function with derivatives up to order six.

    ``evals[k]`` evaluates the k-th derivative elementwise on numpy arrays;
    an entry may be None when the derivative is unavailable.  ``deriv_floor``
    is the smallest argument the derivative evaluators accept.  Polynomials
    carry ``monomial_coeffs`` so divided differences can be evaluated in
    closed form, free of cancellation.
    """

    name: str
    domain: Interval
    evals: tuple[Callable | None, ...]
    class_tags: frozenset = field(default_factory=frozenset)
    deriv_floor: float = 0.0
    params: tuple = ()
    monomial_coeffs: tuple | None = None

    def __call__(self, u):
        return self.deriv(u, 0)

    def deriv(self, u, order: int):
        if order >= len(self.evals) or self.evals[order] is None:
            raise DomainError(f"'{self.name}' has no derivative of order {order}")
        u = np.asarray(u, dtype=float)
        if order >= 1 and self.deriv_floor > 0.0 and (u < self.deriv_floor).any():
            raise DomainError(
                f"derivative of '{self.name}' requires arguments >= "
                f"{self.deriv_floor:g}, got {float(np.min(u)):.6g}"
            )
        return np.asarray(self.evals[order](u), dtype=float)

    def derivative(self) -> "ScalarFunction":
        """View of the first derivative, with derivatives shifted down one order."""
        if len(self.evals) < 2 or self.evals[1] is None:
            raise DomainError(f"'{self.name}' has no first derivative")
        coeffs = None
        if self.monomial_coeffs is not None:
            coeffs = tuple(m * c for m, c in enumerate(self.monomial_coeffs))[1:] or (0.0,)
        return ScalarFunction(
            name=self.name + "'",
            domain=self.domain.open_version(),
            evals=self.evals[1:],
            class_tags=frozenset(),
            deriv_floor=self.deriv_floor,
            params=self.params,
            monomial_coeffs=coeffs,
        )

    def has_tag(self, tag: str) -> bool:
        return tag in self.class_tags

    def spec_string(self) -> str:
        if self.params:
            return ":".join([self.name] + [f"{p:g}" for p in self.params])
        return self.name


def is_affine(f: ScalarFunction) -> bool:
    """Whether f'' = 0 by f's definition: a polynomial of degree <= 1, or u^p, p(p-1) = 0."""
    if f.monomial_coeffs is not None:
        return not any(f.monomial_coeffs[2:])
    return f.name == "power" and f.params[0] * (f.params[0] - 1.0) == 0.0


def _polynomial(name: str, coeffs: tuple, tags: frozenset, params: tuple = ()):
    """The polynomial sum_m c_m u^m; its k-th derivative sums
    c_m m!/(m-k)! u^(m-k) over the nonzero c_m with m >= k."""
    def dk(k):
        terms = [(c * math.perm(m, k), m - k) for m, c in enumerate(coeffs)
                 if c != 0.0 and m >= k]

        def evaluate(u):
            u = np.asarray(u, dtype=float)
            values = [c * u**e for c, e in terms] or [np.zeros_like(u)]
            return sum(values[1:], values[0])
        return evaluate
    return ScalarFunction(name, REAL_LINE, tuple(dk(k) for k in range(7)), tags,
                          params=params, monomial_coeffs=coeffs)


def _xlogx(u):
    u = np.asarray(u, dtype=float)
    safe = np.where(u > 0.0, u, 1.0)
    return np.where(u > 0.0, u * np.log(safe), 0.0)


def _xlogx_deriv(k: int):
    """The k-th derivative of x log x for k >= 2: (-1)^k (k-2)! / u^(k-1)."""
    c = float((-1) ** k * math.factorial(k - 2))
    return lambda u: c / u ** (k - 1)


_BUILTIN_NAMES = ("affine", "square", "xlogx", "power", "quartic", "exp")


def builtin(name: str, *params: float, allow_outside_class: bool = False) -> ScalarFunction:
    """Construct a catalog function by name.

    Supported: affine(a, b), square, xlogx, power(p) for p in [1, 2],
    quartic, exp.  quartic and exp are shipped purely as counterexample
    fuel and carry the outside_class tag.  power(p) with p outside [1, 2]
    is rejected unless allow_outside_class is set.  A NaN or infinite
    parameter, and any parameter of a function that takes none, is rejected.
    """
    if not all(math.isfinite(float(p)) for p in params):
        raise DomainError(f"'{name}' parameters must be finite numbers, got {params}")
    if params and name in ("square", "xlogx", "quartic", "exp"):
        raise DomainError(f"'{name}' takes no parameters, got {params}")
    if name == "affine":
        if len(params) != 2:
            raise DomainError("affine requires two parameters a, b")
        a, b = map(float, params)
        return _polynomial("affine", (a, b), frozenset({C2, C3, OPERATOR_CONVEX}), (a, b))
    if name == "square":
        return _polynomial("square", (0.0, 0.0, 1.0), frozenset({C2, C3, OPERATOR_CONVEX}))
    if name == "xlogx":
        return ScalarFunction(
            "xlogx", HALF_LINE,
            (_xlogx, lambda u: np.log(u) + 1.0, *map(_xlogx_deriv, range(2, 7))),
            frozenset({C2}), deriv_floor=DERIV_FLOOR,
        )
    if name == "power":
        if len(params) != 1:
            raise DomainError("power requires one exponent parameter p")
        p = float(params[0])
        outside = not (1.0 <= p <= 2.0)
        if outside and not allow_outside_class:
            raise DomainError(
                f"power exponent p={p:g} outside [1, 2]; pass "
                "allow_outside_class=True to construct it anyway"
            )

        def dk(k):
            coeff = 1.0
            for j in range(k):
                coeff *= p - j
            return lambda u, c=coeff, e=p - k: c * np.asarray(u, dtype=float) ** e

        tags = frozenset({OUTSIDE_CLASS}) if outside else frozenset({C2})
        return ScalarFunction(
            "power", HALF_LINE, tuple(dk(k) for k in range(7)), tags,
            deriv_floor=DERIV_FLOOR, params=(p,),
        )
    if name == "quartic":
        return _polynomial("quartic", (0.0, 0.0, 0.0, 0.0, 1.0), frozenset({OUTSIDE_CLASS}))
    if name == "exp":
        exp = lambda u: np.exp(np.asarray(u, dtype=float))  # noqa: E731
        return ScalarFunction(
            "exp", REAL_LINE, (exp,) * 7, frozenset({OUTSIDE_CLASS})
        )
    raise DomainError(f"unknown function '{name}'; expected one of {_BUILTIN_NAMES}")


def from_spec(spec: str, allow_outside_class: bool = False) -> ScalarFunction:
    """Parse names of the form "square", "power:1.5", "affine:2:3"."""
    parts = spec.split(":")
    try:
        params = tuple(float(p) for p in parts[1:])
    except ValueError as exc:
        raise DomainError(f"malformed function spec '{spec}'") from exc
    return builtin(parts[0], *params, allow_outside_class=allow_outside_class)


# --- divided differences -----------------------------------------------------

# Quotient evaluation amplifies roundoff like eps/spread^order, so each order
# switches to a mean-centered Taylor form inside a band proportional to the
# local node magnitude (the global coincidence threshold is the floor).
TAYLOR_BAND = {1: 1e-4, 2: 1e-3, 3: 3e-3}


def coincidence_threshold(nodes: np.ndarray) -> np.ndarray:
    """Threshold of each row of nodes (..., m), m >= 1."""
    nodes = np.asarray(nodes, dtype=float)
    return COINCIDENCE_RTOL * (1.0 + (nodes.max(axis=-1) - nodes.min(axis=-1)))


def _h1(*vars_):
    return sum(vars_)


def _h2(*vars_):
    p1 = sum(vars_)
    p2 = sum(v * v for v in vars_)
    return 0.5 * (p1 * p1 + p2)


def _h3(*vars_):
    p1 = sum(vars_)
    p2 = sum(v * v for v in vars_)
    p3 = sum(v * v * v for v in vars_)
    return (p1**3 + 3.0 * p1 * p2 + 2.0 * p3) / 6.0


def _poly_dd(coeffs, order, *nodes):
    """Exact divided difference of a polynomial: sum_m c_m h_{m-order}(nodes).

    Complete homogeneous symmetric polynomials carry no cancellation, so
    this path is exact to roundoff for the polynomial catalog entries.
    """
    nodes = np.broadcast_arrays(*[np.asarray(n, dtype=float) for n in nodes])
    hs = (lambda *v: np.ones_like(v[0]), _h1, _h2, _h3)
    out = np.zeros_like(nodes[0])
    for m, c in enumerate(coeffs):
        j = m - order
        if c == 0.0 or j < 0:
            continue
        out = out + c * hs[j](*nodes)
    return out


def _band(order: int, delta, lo, hi):
    """Taylor band of sorted nodes from lo to hi, whose ends carry the largest |x|."""
    return np.maximum(delta, TAYLOR_BAND[order] * np.maximum(np.abs(lo), np.abs(hi)))


def _has_order(f: ScalarFunction, order: int) -> bool:
    return order < len(f.evals) and f.evals[order] is not None


def _dd(f: ScalarFunction, delta, *nodes):
    """Divided difference f[x_0, ..., x_k] on sorted nodes, k = len(nodes) - 1,
    elementwise; the quotient first, and none if every tuple is in its band."""
    order = len(nodes) - 1
    if f.monomial_coeffs is not None:
        return _poly_dd(f.monomial_coeffs, order, *nodes)
    lower = f if order == 1 else (lambda *sub: _dd(f, delta, *sub))
    spread = nodes[-1] - nodes[0]
    close = spread <= _band(order, delta, nodes[0], nodes[-1])
    mid = sum(nodes) / (order + 1)
    quot = 0.0 if close.all() else (
        (lower(*nodes[1:]) - lower(*nodes[:-1])) / np.where(close, 1.0, spread))
    taylor = f.deriv(mid, order) / math.factorial(order)
    if _has_order(f, order + 2):
        # mean-centered: the linear term drops, leaving the h_2 correction
        sum_sq = sum((n - mid) ** 2 for n in nodes)
        taylor = taylor + f.deriv(mid, order + 2) * sum_sq / (2 * math.factorial(order + 2))
    return np.where(close, taylor, quot)


def _symmetric_grid(order: int, f: ScalarFunction, nodes: np.ndarray) -> np.ndarray:
    """Grid (..., m, ..., m) of the order-th divided difference on nodes (..., m),
    each row with its own coincidence threshold.

    It is evaluated once per sorted index tuple, C(m+order, order+1) of the
    m^(order+1) entries, and read off by symmetry for the rest.
    """
    nodes = np.asarray(nodes, dtype=float)
    delta = coincidence_threshold(nodes)
    tuples, where = _sorted_tuples(nodes.shape[-1], order + 1)
    s = nodes[..., tuples]  # (..., order+1, Q): the nodes of each tuple
    if (nodes[..., 1:] < nodes[..., :-1]).any():  # eigh's nodes ascend already
        s = np.sort(s, axis=-2)
    values = _dd(f, delta[..., None], *(s[..., i, :] for i in range(order + 1)))
    return values[..., where]


def dd1_grid(f: ScalarFunction, nodes: np.ndarray) -> np.ndarray:
    """Grid on nodes (m,), or on each row of (..., m), from the C(m+1, 2) sorted pairs."""
    return _symmetric_grid(1, f, nodes)


def dd2_grid(f: ScalarFunction, nodes: np.ndarray) -> np.ndarray:
    """Grid on nodes (m,), or on each row of (..., m), from the C(m+2, 3) sorted triples."""
    return _symmetric_grid(2, f, nodes)


def dd3_grid(f: ScalarFunction, nodes: np.ndarray) -> np.ndarray:
    """Grid on nodes (m,), or on each row of (..., m), from the C(m+3, 4) sorted quadruples."""
    return _symmetric_grid(3, f, nodes)


@lru_cache(maxsize=32)
def _sorted_tuples(m: int, k: int) -> tuple:
    """The sorted index k-tuples of range(m) as the rows of a (k, Q) array,
    and the (m,)*k map from an index tuple to the column of its sorted form."""
    tuples = np.array(list(combinations_with_replacement(range(m), k)), dtype=np.intp)
    tuples = tuples.reshape(-1, k).T.copy()
    where = np.empty((m,) * k, dtype=np.intp)
    for perm in permutations(tuples):
        where[perm] = np.arange(tuples.shape[1])
    tuples.flags.writeable = where.flags.writeable = False
    return tuples, where


def require_nodes_in_derivative_domain(f: ScalarFunction, nodes: np.ndarray, order: int) -> None:
    """Nodes must sit strictly inside f's domain and at or above f's derivative
    floor, if it has one; the error names the first offending node."""
    nodes = np.asarray(nodes, dtype=float)
    floor = f.deriv_floor if order >= 1 else 0.0
    bad = ~f.domain.open_version().contains(nodes)
    if floor > 0.0:
        bad |= nodes < floor
    if bad.any():
        raise DomainError(
            f"node {nodes.flat[np.argmax(bad)]:.6g} outside the interior of the domain "
            f"{f.domain} of '{f.name}' (derivative floor {floor:g})"
        )
