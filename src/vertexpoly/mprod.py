"""Matrix-product machinery on the tensor product of auxiliary spaces.

Viewing the lattice column-wise, the N-row transfer structure collapses to a
pair of operators on the 2^N-dimensional product of auxiliary spaces: a
diagonal-block operator A (from the vacuum-to-vacuum element) and a raising
operator C (from the vacuum-to-particle element), built by a kron recursion
in the number of rows.  The wavefunction becomes a single matrix element of
a word in these two operators, the word spelled by the particle
configuration: the corner element <all-empty| word |all-full>.

Each row u scales copies of the old pair by its six weights, cleared to
one denominator d_u (`ring.clear_denominators`: polynomials at symbolic
points, ints at rational ones; residues keep d_u = 1).  Every entry of A
and of C picks exactly one weight per row, so the cleared pair is the true
pair times D = prod_u d_u, and the M-factor word's corner carries D^M.  The
corner is read by carrying the all-empty row vector through the cleared
word, one row-times-matrix product per factor, and divided once by D^M.

The raising operator decomposes into N rank-structured pieces obeying a
quasi-commutation algebra; the decomposition is found by simultaneously
diagonalizing the diagonal-block operator through a recursively built
triangular change of basis and conjugating back.

All matrices are dense lists of lists with scalar-mode generic entries
(rationals, residues or RatFunc); sizes stay at 2^N with N small, so no
sparse format is used, though products skip zero entries.
"""

from __future__ import annotations

from .ring import RingError, clear_denominators, cleared_quotient, is_zero

__all__ = [
    "mat_mul",
    "mat_add",
    "mat_scale",
    "mat_identity",
    "mat_eq",
    "mp_build",
    "mp_diagonalized",
    "trace_wavefunction",
    "k_prefactor",
    "k_closed_form",
]


# -- small dense matrix helpers ----------------------------------------


def mat_identity(n, p):
    one, zero = p.one(), p.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_zero(n, p):
    zero = p.zero()
    return [[zero for _ in range(n)] for _ in range(n)]


def mat_mul(x, y):
    """Dense product x y.

    Zero entries of x are skipped (the matrices here are mostly zero); a
    row of x with no nonzero entry gives a row of its own zero.
    """
    cols = len(y[0])
    out = []
    for row_x in x:
        pairs = [(v, row_y) for v, row_y in zip(row_x, y) if not is_zero(v)]
        if not pairs:
            out.append([row_x[0]] * cols)
            continue
        row = []
        for j in range(cols):
            acc = None
            for v, row_y in pairs:
                term = v * row_y[j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def mat_add(x, y):
    return [[a + b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def mat_scale(s, x):
    return [[s * v for v in row] for row in x]


def mat_eq(x, y):
    return len(x) == len(y) and all(
        a == b for rx, ry in zip(x, y) for a, b in zip(rx, ry))


# -- the operator pair and its diagonalization -------------------------


def _cleared_pair(us, p):
    """The cleared operator pair (a_mat, c_mat, D): entries times D.

    The kron recursion starts from ([[1]], [[0]]); the step for row u
    adjoins the new auxiliary factor on the left (slowest index), with
    copies of the old pair, scaled by the row's cleared weights, in the
    nonzero 2 x 2 block positions.
    """
    a, b, e, f = p.a, p.b, p.e, p.f
    tc, td, at, ft = (1 - p.t) * p.c, (1 - p.t) * p.d, a * p.t, f * p.t
    a_mat, c_mat, scale = [[1]], [[0]], 1
    for u in us:
        (w_a, w_e, w_c, w_d, w_at, w_ft), d_u = clear_denominators(
            [a * u + b, e * u + f, tc * u, td, at * u + b, e * u + ft])
        pad = [0 * w_a] * len(a_mat)
        # A' = [[w_a A, 0], [w_d C, w_e A]]
        # C' = [[w_at C, w_c A], [0, w_ft C]]
        a_mat, c_mat = (
            [[w_a * v for v in ra] + pad for ra in a_mat]
            + [[w_d * v for v in rc] + [w_e * v for v in ra]
               for ra, rc in zip(a_mat, c_mat)],
            [[w_at * v for v in rc] + [w_c * v for v in ra]
             for ra, rc in zip(a_mat, c_mat)]
            + [pad + [w_ft * v for v in rc] for rc in c_mat])
        scale = scale * d_u
    return a_mat, c_mat, scale


def mp_build(us, p):
    """The 2^N x 2^N operator pair (diagonal-block, raising) for rows us.

    Each entry of the cleared pair holds one weight of every row, so it is
    divided once by D = prod d_u.
    """
    *pair, scale = _cleared_pair(us, p)
    return tuple([[cleared_quotient(v, scale) for v in row] for row in x]
                 for x in pair)


def mp_diagonalized(us, p):
    """Diagonalizing data for the operator pair.

    Returns (diag, parts, g, g_inv) where diag = g^{-1} A g is diagonal,
    parts[j] (j = 0..N-1, labelled by u_{j+1}) sum to g^{-1} C g, and the
    conjugated pieces g parts[j] g^{-1} decompose the raising operator
    itself.  The change of basis is lower unitriangular by blocks, so its
    inverse is accumulated block-recursively alongside.
    """
    t, a, b, c, e, f = p.t, p.a, p.b, p.c, p.e, p.f
    d = p.d
    zero = p.zero()
    u1 = us[0]
    diag = [[a * u1 + b, zero], [zero, e * u1 + f]]
    parts = [[[zero, (1 - t) * c * u1], [zero, zero]]]
    g = mat_identity(2, p)
    g_inv = mat_identity(2, p)
    for idx in range(1, len(us)):
        u = us[idx]
        n = len(diag)
        # H solves the off-diagonal cancellation; diag is diagonal so its
        # inverse is entrywise.
        h = mat_zero(n, p)
        for j in range(idx):
            uj = us[j]
            coeff = (a * uj + b) / (c * (uj - u))
            h = mat_add(h, mat_scale(coeff, parts[j]))
        h = [[h[i][k] / diag[i][i] for k in range(n)] for i in range(n)]
        gh = mat_mul(g, h)
        g = _block2(g, None, gh, g, p)
        g_inv = _block2(g_inv, None,
                        mat_scale(-p.one(), mat_mul(h, g_inv)), g_inv, p)
        new_parts = []
        for j in range(idx):
            uj = us[j]
            upper = mat_scale((uj - t * u) * (a * u + b) / (uj - u), parts[j])
            lower = mat_scale((t * uj - u) * (e * u + f) / (uj - u), parts[j])
            new_parts.append(_block2(upper, None, None, lower, p))
        new_parts.append(_block2(None, mat_scale((1 - t) * c * u, diag),
                                 None, None, p))
        parts = new_parts
        diag = _block2(mat_scale(a * u + b, diag), None, None,
                       mat_scale(e * u + f, diag), p)
    return diag, parts, g, g_inv


def _block2(tl, tr, bl, br, p):
    """Assemble a 2n x 2n matrix from n x n blocks (None = zero block)."""
    n = len(next(blk for blk in (tl, tr, bl, br) if blk is not None))
    zero_blk = mat_zero(n, p)
    tl, tr = tl or zero_blk, tr or zero_blk
    bl, br = bl or zero_blk, br or zero_blk
    return [tl[i] + tr[i] for i in range(n)] + \
           [bl[i] + br[i] for i in range(n)]


def raising_parts(us, p):
    """The N pieces of the raising operator in the original basis."""
    _, parts, g, g_inv = mp_diagonalized(us, p)
    return [mat_mul(g, mat_mul(pc, g_inv)) for pc in parts]


# -- wavefunction and prefactor ----------------------------------------


def _corner(factors):
    """<all-empty| X_1 X_2 ... X_k |all-full> in the kron basis (k >= 1).

    The top-right entry of the product, found by carrying the all-empty row
    vector, whose product with X_1 is X_1's top row, through the factors
    from the left, one row-times-matrix product (skipping zeros, through
    `mat_mul`) per factor.
    """
    row = factors[0][:1]
    for x in factors[1:]:
        row = mat_mul(row, x)
    return row[0][-1]


def trace_wavefunction(config, us, p):
    """Wavefunction via the operator word spelled by the configuration.

    The word is A^{M-x_N} C A^{x_N - x_{N-1} - 1} ... C A^{x_1 - 1} and the
    wavefunction is its matrix element between the all-empty and all-full
    auxiliary states.  It is read on the cleared pair (ints over Q,
    polynomials at symbolic points); its M factors each carry D, so the
    corner is divided once by D^M.
    """
    if len(config) != len(us):
        raise RingError("config size must match the number of spectral parameters")
    a_mat, c_mat, scale = _cleared_pair(us, p)
    x = (0,) + config.x  # with x_0 = 0 the last block is C A^{x_1 - 1}
    word = [a_mat] * (config.m - x[-1])
    for j in range(len(x) - 1, 0, -1):
        word += [c_mat] + [a_mat] * (x[j] - x[j - 1] - 1)
    return cleared_quotient(_corner(word), scale ** config.m)


def k_prefactor(m, us, p):
    """Configuration-independent prefactor, from the operator-word route.

    prod_j ((a u_j + b)/(e u_j + f))^j times the corner element of
    A^{M-N} P_N ... P_1 with P_j the j-th raising piece.
    """
    n = len(us)
    a_mat, _ = mp_build(us, p)
    parts = raising_parts(us, p)
    value = _corner([a_mat] * (m - n) + parts[::-1])
    for j in range(1, n + 1):
        u = us[j - 1]
        value = value * ((p.a * u + p.b) / (p.e * u + p.f)) ** j
    return value


def k_closed_form(m, us, p):
    """Closed form of the same prefactor."""
    t, a, b, c, e, f = p.t, p.a, p.b, p.c, p.e, p.f
    value = p.one()
    for u in us:
        value = value * (1 - t) * c * u * (a * u + b) ** m / (e * u + f)
    n = len(us)
    for j in range(n):
        for k in range(j + 1, n):
            value = value * (t * us[j] - us[k]) / (us[j] - us[k])
    return value
