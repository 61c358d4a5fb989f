"""Domain-wall boundary partition functions and their determinant forms.

The N x N partition function with fully packed boundary admits three
independent evaluations: the lattice brute force (module lattice), the
permutation-sum form, and the Izergin-Korepin determinant with
inhomogeneities w_k (homogeneous limit w = 1 taken in closed form).  The
dual partition function (built from C-operators) has determinant forms
only; it is anchored to the lattice brute force.

The column index k in the homogeneous determinants runs 1..N; the range is
fixed by the N = 1 and N = 2 anchors.

Both determinant forms expand rows cleared by `ring.clear_denominators`
(residues keep d = 1) with `ring.laplace` and divide once: first by the
monomial product of the rows' scales, then by the Vandermonde, which then
divides the numerator exactly, so the result comes out reduced.  The
permutation sum `z_sum` stays in the point's own scalars: it is the
independent route the determinants are checked against, where a wrong
row scale shows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, combinations, permutations
from math import prod
from operator import mul

from .ring import (RatFunc, RingError, VarTable, clear_denominators,
                   cleared_quotient, distinct_rationals, is_zero, laplace,
                   random_rational)

__all__ = ["z_sum", "z_det_inhom", "z_det_hom", "check_ik_properties",
           "IkReport"]


def _require_distinct(values, what):
    if any(v == w for v, w in combinations(values, 2)):
        raise RingError(f"{what} must be pairwise distinct")


def z_sum(us, p, ws=None):
    """Permutation-sum form of the partition function.

    ws defaults to the homogeneous point (all 1).  The sum runs over S_N
    with the inversion-ratio factor and the row/column band products.
    """
    n = len(us)
    _require_distinct(us, "spectral parameters")
    one = p.one()
    if ws is None:
        ws = [one] * n
    if len(ws) != n:
        raise RingError("need as many inhomogeneities as spectral parameters")
    t, a, b, e, f = p.t, p.a, p.b, p.e, p.f
    prefactor = one
    for u in us:
        prefactor = prefactor * (1 - t) * p.c * u
    for j in range(n):
        for k in range(j + 1, n):
            prefactor = prefactor * (t * us[j] - us[k]) / (us[j] - us[k])
    total = None
    for sigma in permutations(range(n)):
        term = one
        for j in range(n):
            for k in range(j + 1, n):
                if sigma[j] > sigma[k]:
                    usk, usj = us[sigma[k]], us[sigma[j]]
                    term = term * (usk - t * usj) / (t * usk - usj)
        for j in range(n):
            for k in range(j + 1, n):
                term = term * (a * us[sigma[j]] + b * ws[k])
        for k in range(n):
            for j in range(k + 1, n):
                term = term * (e * us[sigma[j]] + f * ws[k])
        total = term if total is None else total + term
    return prefactor * total


def z_det_inhom(us, p, ws, dual=False):
    """Izergin-Korepin determinant form, inhomogeneous.

    dual=False:  prefactor (1-t)c u_j and kernel 1/((a u_j + b w_k)(e u_j + f w_k));
    dual=True:   prefactor (1-t)d w_j, kernel 1/((a t u_j + b w_k)(e u_j + t f w_k))
    and (t^2 cd)^{N(N-1)/2} in place of (cd)^{N(N-1)/2}.

    The prefactor's prod_{j,k} cell(u_j, w_k) cancels the kernel row by
    row: row j times prod_k cell(u_j, w_k) has entry k the product of the
    row's other N - 1 cells, so no cell is inverted, and with the row's
    cells cleared to their d the row is over d^(N-1).  A vanishing cell is
    a pole of the kernel and raises ZeroDivisionError.
    """
    n = len(us)
    one = p.one()
    _require_distinct(us, "spectral parameters")
    _require_distinct(ws, "inhomogeneities")
    if len(ws) != n:
        raise RingError("need as many inhomogeneities as spectral parameters")
    t, a, b, c, d, e, f = p.t, p.a, p.b, p.c, p.d, p.e, p.f
    if dual:
        def cell(u, w):
            return (a * t * u + b * w) * (e * u + t * f * w)

        pref = one
        for w in ws:
            pref = pref * (1 - t) * d * w
        unit = t * t * c * d
    else:
        def cell(u, w):
            return (a * u + b * w) * (e * u + f * w)

        pref = one
        for u in us:
            pref = pref * (1 - t) * c * u
        unit = c * d
    denom = unit ** (n * (n - 1) // 2) * one
    for j in range(n):
        for k in range(j + 1, n):
            denom = denom * (us[j] - us[k]) * (ws[k] - ws[j])
    rows, scale = [], 1
    for u in us:
        cells, row_d = clear_denominators([cell(u, w) for w in ws])
        if any(map(is_zero, cells)):
            raise ZeroDivisionError("the kernel 1/cell(u_j, w_k) has a pole")
        # at N = 1 the entry is the empty product, in the cells' type
        rows.append([prod(cells[:k] + cells[k + 1:], start=cells[k] ** 0)
                     for k in range(n)])
        scale = scale * row_d ** (n - 1)
    det = laplace(rows)
    return pref * ((cleared_quotient(det, scale) if rows else det) / denom)


def z_det_hom(n, us, p, dual=False):
    """Homogeneous limit of the determinant form (w_k = 1 in closed form).

    Entry (j, k) is x^N y^k z^(N-k) - z^N w^k x^(N-k) in the forms [x, z,
    y, w] = [a u + b, e u + f, -f, -b] of u = u_j (dual: [e u + t f,
    a t u + b, -b, -t f]).  Every entry has degree exactly 2N in the forms,
    so with the row's forms cleared to their d the row is over d^(2N).
    """
    if len(us) != n:
        raise RingError("need exactly n spectral parameters")
    _require_distinct(us, "spectral parameters")
    t, a, b, c, d, e, f = p.t, p.a, p.b, p.c, p.d, p.e, p.f
    one = p.one()
    if dual:
        def forms(u):
            return [e * u + t * f, a * t * u + b, -b, -t * f]

        denom = (one * t ** (n * n) * c ** (n * (n + 1) // 2)
                 * d ** (n * (n - 1) // 2))
        for u in us:
            denom = denom * u
    else:
        def forms(u):
            return [a * u + b, e * u + f, -f, -b]

        denom = c ** (n * (n - 1) // 2) * d ** (n * (n + 1) // 2) * one
    for j in range(n):
        for k in range(j + 1, n):
            denom = denom * (us[j] - us[k])
    rows, scale = [], 1
    for u in us:
        cleared, row_d = clear_denominators(forms(u))
        x, z, y, w = (list(accumulate([v] * n, mul, initial=v ** 0))
                      for v in cleared)
        rows.append([x[n] * y[k] * z[n - k] - z[n] * w[k] * x[n - k]
                     for k in range(1, n + 1)])
        scale = scale * row_d ** (2 * n)
    det = laplace(rows)
    return (cleared_quotient(det, scale) if rows else det) / denom


@dataclass
class IkReport:
    """Outcome of the four Izergin-Korepin defining-property checks."""

    degree: bool          # polynomial of degree N-1 in w_N
    symmetric: bool       # invariant under a transposition of the u's
    base_case: bool       # Z_1 = (1-t) c u_1
    recursion: dict       # k -> bool, substitution w_N = -a u_k / b

    def all_pass(self):
        return (self.degree and self.symmetric and self.base_case
                and all(self.recursion.values()))


def check_ik_properties(n, p, seed, z_fn=z_sum):
    """Check the four properties characterizing the partition function.

    Evaluates z_fn (default: the permutation sum) at a seeded random point;
    the degree property is checked symbolically in w_N with everything else
    numeric.  Recursion is checked for every k = 1..N, not only the
    sigma(N) = N case used in its textbook justification.
    """
    if n < 2:
        raise RingError("property checks need n >= 2")
    if p.symbolic:
        raise RingError("check_ik_properties expects a numeric ParamSet")
    rng = random.Random(seed * 2654435761 + 3)
    us = distinct_rationals(rng, n)
    ws = distinct_rationals(rng, n)

    # (1) degree in w_N: lift everything to RatFunc over the single symbol.
    vt = VarTable(["wN"])
    lift = lambda v: RatFunc(vt.const(v))
    p_sym = p.map(lift)
    z_wn = z_fn([lift(u) for u in us], p_sym,
                ws=[lift(w) for w in ws[:-1]] + [RatFunc(vt.var("wN"))])
    degree_ok = (z_wn.den.is_constant()
                 and z_wn.num.degree_in("wN") == n - 1)

    # (2) symmetry under a random transposition of the u's.
    i, j = rng.sample(range(n), 2)
    us_swapped = list(us)
    us_swapped[i], us_swapped[j] = us_swapped[j], us_swapped[i]
    symmetric_ok = z_fn(us, p, ws=ws) == z_fn(us_swapped, p, ws=ws)

    # (3) base case.
    u1, w1 = random_rational(rng), random_rational(rng)
    base_ok = z_fn([u1], p, ws=[w1]) == (1 - p.t) * p.c * u1

    # (4) recursion at w_N = -a u_k / b, for every k.
    recursion = {}
    for k in range(1, n + 1):
        uk = us[k - 1]
        ws_pinned = ws[:-1] + [-p.a * uk / p.b]
        lhs = z_fn(us, p, ws=ws_pinned)
        rhs = (1 - p.t) * p.c * p.a ** (n - 1) * uk
        for jj in range(n):
            if jj != k - 1:
                rhs = rhs * (p.t * us[jj] - uk)
        for w in ws[:-1]:
            rhs = rhs * (p.e * uk + p.f * w)
        rhs = rhs * z_fn([u for jj, u in enumerate(us) if jj != k - 1], p,
                         ws=ws[:-1])
        recursion[k] = lhs == rhs
    return IkReport(degree_ok, symmetric_ok, base_ok, recursion)
