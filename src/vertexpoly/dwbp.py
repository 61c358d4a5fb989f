"""Domain-wall boundary partition functions and their determinant forms.

The N x N partition function with fully packed boundary admits three
independent evaluations: the lattice brute force (module lattice), the
permutation-sum form, and the Izergin-Korepin determinant with
inhomogeneities w_k (homogeneous limit w = 1 taken in closed form).  The
dual partition function (built from C-operators) has determinant forms
only; it is anchored to the lattice brute force.

The column index k in the homogeneous determinants runs 1..N; the range is
fixed by the N = 1 and N = 2 anchors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations

from .ring import (RatFunc, RingError, VarTable, determinant,
                   distinct_rationals, random_rational)

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
    for u in us:
        for w in ws:
            pref = pref * cell(u, w)
    denom = unit ** (n * (n - 1) // 2)
    for j in range(n):
        for k in range(j + 1, n):
            denom = denom * (us[j] - us[k]) * (ws[k] - ws[j])
    det = determinant([[one / cell(u, w) for w in ws] for u in us])
    return pref * det / denom


def z_det_hom(n, us, p, dual=False):
    """Homogeneous limit of the determinant form (w_k = 1 in closed form)."""
    if len(us) != n:
        raise RingError("need exactly n spectral parameters")
    _require_distinct(us, "spectral parameters")
    t, a, b, c, d, e, f = p.t, p.a, p.b, p.c, p.d, p.e, p.f
    one = p.one()
    if dual:
        def entry(u, k):
            return (e * u + t * f) ** n * (-b) ** k * (a * t * u + b) ** (n - k) \
                - (a * t * u + b) ** n * (-t * f) ** k * (e * u + t * f) ** (n - k)

        denom = t ** (n * n) * c ** (n * (n + 1) // 2) * d ** (n * (n - 1) // 2)
        for u in us:
            denom = denom * u
    else:
        def entry(u, k):
            return (a * u + b) ** n * (-f) ** k * (e * u + f) ** (n - k) \
                - (e * u + f) ** n * (-b) ** k * (a * u + b) ** (n - k)

        denom = c ** (n * (n - 1) // 2) * d ** (n * (n + 1) // 2) * one
    for j in range(n):
        for k in range(j + 1, n):
            denom = denom * (us[j] - us[k])
    det = determinant([[entry(u, k) for k in range(1, n + 1)] for u in us])
    return det / denom


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
