"""Closed-form symmetric polynomial families and skew factors.

Four families are defined by permutation sums over S_N with kind-specific
prefactors; `G` and `Gbar` are indexed by particle configurations, `H` and
`Hbar` by hole configurations.  At quantum parameter t = 0 and under the
specialization a = 1, b = t*beta, c = d = 1, e = -1/beta, f = -1 the first
family reduces (up to an explicit monomial factor) to the beta-Grothendieck
polynomials of the Grassmannian, with symmetric variables
z_j = -1/beta - 1/u_j and the partition read off the configuration by
lambda_j = x_{N-j+1} - N + j - 1.

Permutation sums iterate S_N in lexicographic order and evaluate the
inversion-condition products from the explicit inversion set (the factors
are ratios, not signs).  The sum runs on cleared scalars
(`ring.clear_denominators`; residues keep d = 1): each site's [numerator
form, denominator form] row and each pair's two inversion choices are
cleared to one d, and every summand takes the same number of entries from
each row, so the sum is divided once by the product of their d's.  It is
then divided, exactly, by the Vandermonde prod_{j<k} (u_j - u_k), so
symbolic results come out reduced, a polynomial over a monomial.
"""

from __future__ import annotations

from itertools import permutations

from .lattice import _WAVE_KINDS, ParticleConfig
from .ring import (RingError, clear_denominators, cleared_quotient,
                   determinant)

__all__ = [
    "family_poly",
    "grothendieck_det",
    "degeneration_rhs",
    "skew_factor",
    "interlaces",
    "config_to_young",
    "young_to_config",
]


def config_to_young(config):
    """Partition lambda with lambda_j = x_{N-j+1} - N + j - 1."""
    x = config.x
    n = len(x)
    return tuple(x[n - j] - n + j - 1 for j in range(1, n + 1))


def young_to_config(lam, m):
    """Inverse of config_to_young on lattice length m."""
    n = len(lam)
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise RingError(f"{lam} is not weakly decreasing")
    if lam and lam[0] > m - n:
        raise RingError(f"lambda_1 = {lam[0]} exceeds M - N = {m - n}")
    if any(v < 0 for v in lam):
        raise RingError("negative part in partition")
    x = sorted(lam[j - 1] + n - j + 1 for j in range(1, n + 1))
    return ParticleConfig(m, tuple(x))


# The four linear forms every site weight is built from.
_FORMS = (
    lambda p, u: p.a * u + p.b,
    lambda p, u: p.a * p.t * u + p.b,
    lambda p, u: p.e * u + p.f,
    lambda p, u: p.e * u + p.t * p.f,
)

# Per family kind:
# - the forms (indices into _FORMS) in the numerator and denominator of
#   the site ratio;
# - whether the prefactor carries c*u (else d);
# - whether the inversion ratio is (t*x - y)/(x - t*y) rather than
#   (x - t*y)/(t*x - y);
# - whether the pairwise outer ratio has a factor t in its denominator.
_FAMILY_ROWS = {
    "G": ((2, 0), True, False, False),
    "Gbar": ((0, 2), False, True, False),
    "H": ((3, 1), True, True, True),
    "Hbar": ((1, 3), False, False, True),
}

# family kind -> the configuration class of the wavefunction it equals
_FAMILY_CONFIG = {family: flavour
                  for *_, flavour, family in _WAVE_KINDS.values()}


def _family_row(kind):
    """(configuration class, *_FAMILY_ROWS entry) of a family kind."""
    if kind not in _FAMILY_ROWS:
        raise RingError(f"unknown family kind {kind!r}")
    return (_FAMILY_CONFIG[kind], *_FAMILY_ROWS[kind])


def family_poly(kind, config, us, p):
    """One of the four symmetric polynomial families, by its closed formula.

    kind 'G'/'Gbar' take a ParticleConfig, 'H'/'Hbar' a HoleConfig; m is
    the configuration's lattice length.  The spectral parameters must be
    pairwise distinct.
    """
    flavour, (num_form, den_form), with_cu, flipped, t_outer = \
        _family_row(kind)
    if not isinstance(config, flavour):
        raise RingError(f"kind {kind} requires a {flavour.__name__}")
    m = config.m
    n = len(us)
    if len(config) != n:
        raise RingError("config size must match the number of spectral parameters")
    positions = config.x if flavour is ParticleConfig else config.xbar
    t, c, d = p.t, p.c, p.d

    def lo(x, y):
        return x - t * y

    def hi(x, y):
        return t * x - y

    inv_num, inv_den = (hi, lo) if flipped else (lo, hi)
    (one,), scale = clear_denominators([p.one()])

    # The site ratios are scaled by the lowest and the highest position, so
    # every summand takes x_max - x_min site forms per site; each site's
    # [numerator form, denominator form] row is cleared together, to its d.
    x_min, x_max = (positions[0], positions[-1]) if positions else (1, 1)
    prefactor = p.one()
    sites = []
    for u in us:
        s_num, s_den = _FORMS[num_form](p, u), _FORMS[den_form](p, u)
        weight = (1 - t) * c * u if with_cu else (1 - t) * d
        prefactor = prefactor * (
            weight * s_den ** (m - x_max) * s_num ** (x_min - 1))
        forms, site_d = clear_denominators([s_num, s_den])
        sites.append(forms)
        scale = scale * site_d ** (x_max - x_min)
    # Pair j < k takes inv_num(u_j, u_k) if u_k comes first in the summand
    # and inv_den(u_j, u_k) if u_j does: ahead[x][y] is the pair's factor
    # when u_x comes first.  Its other factor, inv_den(u_k, u_j), is common
    # to every summand and cancels from the pairwise divisor.
    ahead = [[None] * n for _ in range(n)]
    pairwise = p.one()
    for j in range(n):
        for k in range(j + 1, n):
            (ahead[k][j], ahead[j][k]), pair_d = clear_denominators(
                [inv_num(us[j], us[k]), inv_den(us[j], us[k])])
            scale = scale * pair_d
            pairwise = pairwise * (us[j] - us[k])
            if t_outer:
                prefactor = prefactor / t

    # Over the monomial scale, the quotient by the Vandermonde cancels
    # against the numerator alone, so the result comes out reduced.
    total = None
    for sigma in permutations(range(n)):
        term = one
        for j in range(n):
            for k in range(j + 1, n):
                term = term * ahead[sigma[j]][sigma[k]]
        for j, s in enumerate(sigma):
            s_num, s_den = sites[s]
            term = term * s_num ** (positions[j] - x_min) \
                * s_den ** (x_max - positions[j])
        total = term if total is None else total + term
    return prefactor * (cleared_quotient(total, scale) / pairwise)


def grothendieck_det(lam, zs, beta):
    """Bialternant determinant form of the beta-Grothendieck polynomial.

    det_N(z_j^{lambda_k + N - k} (1 + beta z_j)^{k-1}) divided by the
    Vandermonde prod_{j<k}(z_j - z_k) in one division.  The Vandermonde
    starts at beta ** 0, so it has beta's scalar type even for N = 0.  With
    polynomial entries the division is exact, and `RatFunc` division
    returns the quotient as a polynomial.
    """
    n = len(lam)
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise RingError(f"{lam} is not weakly decreasing")
    matrix = [[z ** (lam[k - 1] + n - k) * (1 + beta * z) ** (k - 1)
               for k in range(1, n + 1)] for z in zs]
    vandermonde = beta ** 0
    for j in range(n):
        for k in range(j + 1, n):
            vandermonde = vandermonde * (zs[j] - zs[k])
    return determinant(matrix) / vandermonde


def degeneration_rhs(x, us, beta, m):
    """Grothendieck side of the t -> 0 limit of the first family.

    (-beta)^{-N(N-1)/2} * prod u_j^m * G_lambda(z; beta) with
    z_j = -1/beta - 1/u_j and lambda from the translation rule.
    """
    n = len(x)
    lam = config_to_young(x)
    zs = [-(beta ** -1) - u ** -1 for u in us]
    g = grothendieck_det(lam, zs, beta)
    scale = (-beta) ** -(n * (n - 1) // 2)
    for u in us:
        scale = scale * u ** m
    return scale * g


def interlaces(y, x):
    """y_1 <= x_1 <= y_2 <= ... <= x_N <= y_{N+1} (|y| = |x| + 1)."""
    if len(y) != len(x) + 1:
        return False
    for j, xv in enumerate(x):
        if not (y[j] <= xv <= y[j + 1]):
            return False
    return True


def _skew_subsequences(y, x):
    """The distinguished subsequences of y and of x.

    p's are the entries y_j differing from both x_j and x_{j-1}; q's are the
    entries x_j differing from both y_j and y_{j+1}.  Missing comparands at
    the boundary are treated as never equal.
    """
    ps = [y[j] for j in range(len(y))
          if (j >= len(x) or y[j] != x[j]) and (j == 0 or y[j] != x[j - 1])]
    qs = [x[j] for j in range(len(x))
          if x[j] != y[j] and x[j] != y[j + 1]]
    return ps, qs


def skew_factor(kind, y, x, u, p, m):
    """Closed-product skew factor of one of the four families.

    y and x are the position tuples of the larger (size N+1) and smaller
    (size N) configurations; 0 unless y interlaces x.  Equals the
    corresponding single-row operator matrix element.
    """
    _, (num_form, den_form), with_cu, _, _ = _family_row(kind)
    y, x = tuple(y), tuple(x)
    if not interlaces(y, x):
        return p.zero()
    ps, qs = _skew_subsequences(y, x)
    k = len(qs)
    if len(ps) != k + 1:
        raise RingError("skew subsequence extraction out of balance")
    qext = [0] + qs + [m + 1]
    t = p.t
    cu, dd = (1 - t) * p.c * u, (1 - t) * p.d
    if with_cu:
        result = cu ** (k + 1) * dd ** k
    else:
        result = dd ** (k + 1) * cu ** k
    # Between p_j and q_j an occupied site weighs the t-partner (index ^ 1)
    # of the site-ratio denominator form and an empty site the form
    # itself; between q_{j-1} and p_j likewise with the numerator form.
    w_up_occ, w_up_emp, w_dn_occ, w_dn_emp = (
        _FORMS[i](p, u) for i in (den_form ^ 1, den_form,
                                  num_form ^ 1, num_form))
    for j in range(1, k + 2):
        pj, qj, qprev = ps[j - 1], qext[j], qext[j - 1]
        occ_up = sum(1 for v in x if pj < v < qj)
        occ_dn = sum(1 for v in x if qprev < v < pj)
        result = result \
            * w_up_occ ** occ_up * w_up_emp ** (qj - pj - 1 - occ_up) \
            * w_dn_occ ** occ_dn * w_dn_emp ** (pj - qprev - 1 - occ_dn)
    return result
