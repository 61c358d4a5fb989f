"""Six-vertex lattice engine: local weights, row operators, wavefunctions.

Basis-state encoding: bit j-1 of an integer encodes the occupation of site j
(bit set = particle), matching the left-to-right site order 1..M.  The row
monodromy is the product L_{aM}(u, w_M) ... L_{a1}(u, w_1) over a shared
two-dimensional auxiliary space; a row operator is applied as a left-to-right
sweep over sites carrying the auxiliary index, with the boundary auxiliary
states selecting which of the four operators (A, B, C, D) is applied.  The
full 2^M x 2^M operator matrix is never materialized.

Each application first builds a small table of the nonzero local weights:
one for a homogeneous lattice, one per site with inhomogeneities, cleared
to a common denominator d by `ring.clear_denominators` (polynomials at
symbolic points, ints at rational ones; residues keep d = 1).  One
application picks exactly one weight per site, so it scales every amplitude
by the product D of its sites' d, d^M on a homogeneous lattice.  The sweep
multiplies and adds cleared values, which never renormalize, multiplies the
D of its operators together, and divides each amplitude once, when it is
read.  With `transpose=True` the same sweep applies an operator to a
covector, <s|X(u): the known bits are the output bits and the sum runs over
input bits.

`wavefunctions` reads every amplitude of one kind from one sweep: psi and
phi_dual from the states B(u_N)...B(u_1)|vacuum> and C(u_N)...C(u_1)|packed>,
phi and psi_dual from the covectors <packed|B(u_1)...B(u_N) and
<vacuum|C(u_1)...C(u_N).  `wavefunction` contracts the same N x M lattice
column by column (the column-to-column transfer matrix, Baxter, Exactly
Solved Models in Statistical Mechanics, 1982, ch. 8), so its state is the
N auxiliary bits between two columns: at most C(N, k) <= 2^N entries,
where a row sweep carries up to C(M, k).

All functions are pure and scalar-mode generic: they work identically on
big-rational scalars (fast numeric evaluation) and RatFunc scalars (exact
symbolic computation).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import prod
from operator import itemgetter

from .mprod import mat_eq, mat_mul
from .ring import (RingError, clear_denominators, cleared_quotient,
                   is_zero)

__all__ = [
    "ParticleConfig",
    "HoleConfig",
    "StateVector",
    "l_weight",
    "r_weight",
    "apply_row_operator",
    "wavefunction",
    "wavefunctions",
    "matrix_element",
    "check_rll",
    "check_ybe",
    "all_particle_configs",
]


def _positions(m, values):
    """values as a tuple, checked to be strictly increasing in 1..m."""
    values = tuple(values)
    if any(not (1 <= v <= m) for v in values):
        raise RingError(f"config {values} out of range 1..{m}")
    if any(p >= q for p, q in zip(values, values[1:])):
        raise RingError(f"config {values} not strictly increasing")
    return values


@dataclass(frozen=True)
class ParticleConfig:
    """Strictly increasing occupied-site positions x_1 < ... < x_N in 1..M."""

    m: int
    x: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", _positions(self.m, self.x))

    def __len__(self):
        return len(self.x)

    def bits(self):
        out = 0
        for v in self.x:
            out |= 1 << (v - 1)
        return out

    def complement(self):
        """The hole configuration on the empty sites."""
        occupied = set(self.x)
        return HoleConfig(self.m, tuple(v for v in range(1, self.m + 1)
                                        if v not in occupied))


@dataclass(frozen=True)
class HoleConfig:
    """Strictly increasing empty-site positions in 1..M; other sites occupied."""

    m: int
    xbar: tuple

    def __post_init__(self):
        object.__setattr__(self, "xbar", _positions(self.m, self.xbar))

    def __len__(self):
        return len(self.xbar)

    def bits(self):
        out = (1 << self.m) - 1
        for v in self.xbar:
            out &= ~(1 << (v - 1))
        return out


def all_particle_configs(m, n):
    """All n-particle configurations on m sites, lexicographically."""
    return [ParticleConfig(m, c) for c in combinations(range(1, m + 1), n)]


class StateVector:
    """Sparse vector on the 2^M quantum space: basis bits -> amplitude."""

    __slots__ = ("m", "amps")

    def __init__(self, m, amps=None):
        self.m = m
        self.amps = {s: a for s, a in (amps or {}).items() if not is_zero(a)}

    @classmethod
    def basis(cls, m, bits, one):
        return cls(m, {bits: one})

    @classmethod
    def vacuum(cls, m, one):
        return cls.basis(m, 0, one)

    @classmethod
    def packed(cls, m, one):
        return cls.basis(m, (1 << m) - 1, one)

    def amplitude(self, bits, zero):
        return self.amps.get(bits, zero)

    def __eq__(self, other):
        if not isinstance(other, StateVector) or self.m != other.m:
            return NotImplemented
        if set(self.amps) != set(other.amps):
            return False
        return all(self.amps[s] == other.amps[s] for s in self.amps)

    def __repr__(self):
        return f"StateVector(m={self.m}, {len(self.amps)} states)"


def l_weight(alpha, beta, gamma, delta, u, w, p):
    """Local vertex weight [L(u, w)]^{gamma delta}_{alpha beta}.

    alpha/gamma are the incoming/outgoing auxiliary occupations and
    beta/delta the incoming/outgoing quantum-site occupations.  Vanishes
    off the ice rule alpha + beta = gamma + delta.  w = 1 is the
    homogeneous weight.
    """
    if alpha + beta != gamma + delta:
        return 0 * u
    if alpha == 0:
        if beta == 0:
            return p.a * u + p.b * w                       # 00 -> 00
        if delta == 1:
            return p.a * p.t * u + p.b * w                 # 01 -> 01
        return (1 - p.t) * p.d * w                         # 01 -> 10
    if beta == 0:
        if delta == 0:
            return p.e * u + p.f * w                       # 10 -> 10
        return (1 - p.t) * p.c * u                         # 10 -> 01
    return p.e * u + p.t * p.f * w                         # 11 -> 11


def r_weight(alpha, beta, gamma, delta, u, p):
    """Intertwiner weight [R(u)]^{gamma delta}_{alpha beta}; 0 off the ice rule."""
    if alpha + beta != gamma + delta:
        return 0 * u
    if alpha == beta:
        return u - p.t
    if alpha == 0:
        # in 01
        return p.t * (u - 1) if delta == 1 else 1 - p.t
    # in 10
    return (1 - p.t) * u if delta == 1 else u - 1


_BOUNDARY = {"A": (0, 0), "B": (1, 0), "C": (0, 1), "D": (1, 1)}


# a move (alpha, beta, gamma, delta) as (carried in, known, free, carried
# out): a row sweep carries the auxiliary line past a state's or, transposed,
# a covector's bit; a column sweep carries the quantum line past alpha
_ROW = itemgetter(0, 1, 3, 2)
_TRANSPOSED = itemgetter(0, 3, 1, 2)
_COLUMN = itemgetter(1, 0, 2, 3)


def _site_weights(u, w, p, orient):
    """The nonzero local weights of one site, cleared and grouped.

    Returns (steps, d): the weights over their common denominator d (see
    `clear_denominators`), with steps mapping (carried, known) to
    ((free, carried out, weight), ...) in the orientation `orient`.
    """
    moves, weights = [], []
    for aux, beta, delta in product((0, 1), repeat=3):
        gamma = aux + beta - delta
        if gamma not in (0, 1):
            continue
        wgt = l_weight(aux, beta, gamma, delta, u, w, p)
        if is_zero(wgt):
            continue
        moves.append(orient((aux, beta, gamma, delta)))
        weights.append(wgt)
    steps = {(carried, known): [] for carried in (0, 1) for known in (0, 1)}
    cleared, d = clear_denominators(weights)
    for (carried, known, free, out), wgt in zip(moves, cleared):
        steps[carried, known].append((free, out, wgt))
    return steps, d


def _row_weights(u, m, p, orient):
    """The cleared site tables of one row operator, and its factor D."""
    if p.w is None:
        steps, d = _site_weights(u, p.one(), p, orient)
        return [steps] * m, d ** m
    if len(p.w) != m:
        raise RingError("inhomogeneity list length does not match lattice")
    tables = [_site_weights(u, w, p, orient) for w in p.w]
    return [steps for steps, _ in tables], prod(d for _, d in tables)


def _row_sweep(s, sites, aux_in, aux_out):
    """One row operator on s, from the site tables and boundary pair.

    The last site drops the dead paths, which leave it off aux_out; with
    no sites at all, the filter at the end drops them.
    """
    if sites:
        sites = [*sites[:-1], {key: [st for st in steps if st[1] == aux_out]
                               for key, steps in sites[-1].items()}]
    out = {}
    for bits, amp in s.amps.items():
        # frontier: (carried, partial free bits) -> amplitude
        frontier = {(aux_in, 0): amp}
        for j, steps in enumerate(sites):
            known = (bits >> j) & 1
            nxt = {}
            for (aux, fbits), a in frontier.items():
                for free, gamma, wgt in steps[aux, known]:
                    key = (gamma, fbits | (free << j))
                    acc = nxt.get(key)
                    nxt[key] = a * wgt if acc is None else acc + a * wgt
            frontier = nxt
        for (aux, fbits), a in frontier.items():
            if aux != aux_out:
                continue
            acc = out.get(fbits)
            out[fbits] = a if acc is None else acc + a
    return StateVector(s.m, out)


def _sweep(op, s, us, p, transpose):
    """s with op(u) applied for each u in turn, on cleared scalars.

    Returns (state, d) whose quotient is the result: s is cleared once, and
    each operator runs on its cleared site tables and multiplies d by its
    factor D, so nothing is divided until an amplitude is read.
    """
    if op not in _BOUNDARY:
        raise RingError(f"unknown row operator {op!r}")
    aux_in, aux_out = _BOUNDARY[op]
    amps, d = clear_denominators(list(s.amps.values()))
    s = StateVector(s.m, dict(zip(s.amps, amps)))
    for u in us:
        sites, factor = _row_weights(u, s.m, p,
                                     _TRANSPOSED if transpose else _ROW)
        s = _row_sweep(s, sites, aux_in, aux_out)
        d = d * factor
    return s, d


def apply_row_operator(kind, u, s, p, transpose=False):
    """Apply the row operator A(u), B(u), C(u) or D(u) to a state vector.

    Sweeps sites 1..M carrying the two-dimensional auxiliary index; the
    boundary pair (auxiliary in, auxiliary out) is (0,0) for A, (1,0) for B,
    (0,1) for C and (1,1) for D, matching the monodromy element conventions.
    With `transpose`, s is read as a covector and the result is <s|X(u):
    the bits of s are the output bits and the sum runs over input bits,
    with the auxiliary line still running from site 1 to M.
    """
    out, d = _sweep(kind, s, [u], p, transpose)
    return StateVector(s.m, {bits: cleared_quotient(a, d)
                             for bits, a in out.amps.items()})


# wavefunction kind -> (row operator, starts packed, covector, config class,
# the closed-form family it equals): `wavefunctions` applies the operators to
# the start state for the forward kinds and to the start covector for the
# covector kinds; the configuration is the bra of a forward kind and the
# ket of a covector kind.  The package's one statement of which
# configuration class each wavefunction and family kind takes; the checks
# visit the kinds in this order, which fixes the first witness they report.
_WAVE_KINDS = {
    "psi": ("B", False, False, ParticleConfig, "G"),
    "psi_dual": ("C", False, True, ParticleConfig, "Gbar"),
    "phi": ("B", True, True, HoleConfig, "H"),
    "phi_dual": ("C", True, False, HoleConfig, "Hbar"),
}


def _wave_kind(kind):
    try:
        return _WAVE_KINDS[kind]
    except KeyError:
        raise RingError(f"unknown wavefunction kind {kind!r}") from None


def _read(s, bits, d, p):
    """The amplitude at `bits` of the cleared state s over d."""
    a = s.amps.get(bits)
    return p.zero() if a is None else cleared_quotient(a, d)


def wavefunction(kind, config, us, p):
    """Overlap of an N-fold B- or C-product state with a configuration.

    kind 'psi':      <x_1..x_N| B(u_N)...B(u_1) |vacuum>
    kind 'psi_dual': <vacuum| C(u_1)...C(u_N) |x_1..x_N>
    kind 'phi':      <packed| B(u_1)...B(u_N) |xbar_1..xbar_N>
    kind 'phi_dual': <xbar_1..xbar_N| C(u_N)...C(u_1) |packed>

    psi and psi_dual take a ParticleConfig, phi and phi_dual a HoleConfig.
    Computed purely by operator application; no closed formula is used.
    Column j is one sweep over the rows, in the order their operators
    apply to the ket, that carries site j's quantum line from the ket's bit
    to the bra's over the N auxiliary bits, which enter column 1 at the
    operator's incoming value and are read at its outgoing value.
    """
    op, packed, covector, flavour, _ = _wave_kind(kind)
    if not isinstance(config, flavour):
        raise RingError(f"kind {kind} requires a {flavour.__name__}")
    if len(config) != len(us):
        raise RingError("config size must match the number of spectral parameters")
    m, full = config.m, (1 << len(us)) - 1
    aux_in, aux_out = _BOUNDARY[op]
    start = (1 << m) - 1 if packed else 0
    ket, bra = (config.bits(), start) if covector else (start, config.bits())
    rows = [_row_weights(u, m, p, _COLUMN)
            for u in (reversed(us) if covector else us)]
    (one,), d = clear_denominators([p.one()])
    d = prod((factor for _, factor in rows), start=d)
    s = StateVector(len(us), {full * aux_in: one})
    for j in range(m):
        s = _row_sweep(s, [sites[j] for sites, _ in rows], (ket >> j) & 1,
                       (bra >> j) & 1)
    return _read(s, full * aux_out, d, p)


def wavefunctions(kind, m, us, p):
    """Every amplitude of one wavefunction kind, from one operator sweep.

    Returns {config bits: amplitude} over all configurations the kind
    takes on m sites with N = len(us): N particles for psi and psi_dual,
    N holes for phi and phi_dual.  psi and phi_dual read the state
    B(u_N)...B(u_1)|vacuum> or C(u_N)...C(u_1)|packed>; phi and psi_dual
    read the covector <packed|B(u_1)...B(u_N) or <vacuum|C(u_1)...C(u_N).
    """
    op, packed, covector, flavour, _ = _wave_kind(kind)
    n = len(us)
    if n > m:
        raise RingError(f"{n} spectral parameters on {m} sites")
    start = (1 << m) - 1 if packed else 0
    s, d = _sweep(op, StateVector.basis(m, start, p.one()), us, p,
                  transpose=covector)
    occupied = n if flavour is ParticleConfig else m - n
    return {c.bits(): _read(s, c.bits(), d, p)
            for c in all_particle_configs(m, occupied)}


def matrix_element(kind, bra, u, ket, p):
    """Single-row matrix element <bra| B(u) |ket> or <bra| C(u) |ket>.

    bra and ket are ParticleConfig or HoleConfig on the same lattice.
    Returns 0 whenever the ice rule forbids the transition.
    """
    if kind not in ("B", "C"):
        raise RingError(f"unknown operator kind {kind!r}")
    if bra.m != ket.m:
        raise RingError("bra and ket live on different lattices")
    s = apply_row_operator(kind, u, StateVector.basis(ket.m, ket.bits(), p.one()), p)
    return s.amplitude(bra.bits(), p.zero())


# -- Yang-Baxter checkers ----------------------------------------------


def _embed_two_site(weight_fn, pos_i, pos_j):
    """Dense 8x8 matrix of a two-site operator on factors pos_i, pos_j of 3."""
    other = next(k for k in range(3) if k not in (pos_i, pos_j))
    mat = [[0] * 8 for _ in range(8)]
    for col in range(8):
        bits_in = [(col >> (2 - k)) & 1 for k in range(3)]
        for alpha_out in (0, 1):
            for beta_out in (0, 1):
                wgt = weight_fn(bits_in[pos_i], bits_in[pos_j],
                                alpha_out, beta_out)
                if is_zero(wgt):
                    continue
                bits_out = [0, 0, 0]
                bits_out[pos_i] = alpha_out
                bits_out[pos_j] = beta_out
                bits_out[other] = bits_in[other]
                row = sum(b << (2 - k) for k, b in enumerate(bits_out))
                mat[row][col] = mat[row][col] + wgt
    return mat


def check_rll(u1, u2, p):
    """True iff R12(u1/u2) L13(u1) L23(u2) = L23(u2) L13(u1) R12(u1/u2)."""
    r12 = _embed_two_site(lambda a, b, g, d: r_weight(a, b, g, d, u1 / u2, p), 0, 1)
    one = p.one()
    l13 = _embed_two_site(lambda a, b, g, d: l_weight(a, b, g, d, u1, one, p), 0, 2)
    l23 = _embed_two_site(lambda a, b, g, d: l_weight(a, b, g, d, u2, one, p), 1, 2)
    return mat_eq(mat_mul(r12, mat_mul(l13, l23)),
                  mat_mul(l23, mat_mul(l13, r12)))


def check_ybe(u1, u2, p):
    """True iff R12(u1/u2) R13(u1) R23(u2) = R23(u2) R13(u1) R12(u1/u2)."""
    def emb(u, i, j):
        return _embed_two_site(lambda a, b, g, d: r_weight(a, b, g, d, u, p), i, j)

    r12 = emb(u1 / u2, 0, 1)
    r13 = emb(u1, 0, 2)
    r23 = emb(u2, 1, 2)
    return mat_eq(mat_mul(r12, mat_mul(r13, r23)),
                  mat_mul(r23, mat_mul(r13, r12)))
