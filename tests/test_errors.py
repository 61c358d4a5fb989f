"""Library entry points reject inconsistent input with a RingError."""

import pytest

from vertexpoly.dwbp import check_ik_properties, z_det_hom, z_det_inhom, z_sum
from vertexpoly.lattice import (ParticleConfig, StateVector,
                                apply_row_operator, matrix_element,
                                wavefunction)
from vertexpoly.mprod import trace_wavefunction
from vertexpoly.params import ParamSet
from vertexpoly.ring import QQ, RingError
from vertexpoly.sympoly import family_poly, grothendieck_det, young_to_config

P = ParamSet.sample(1)
U1, U2, W1, W2 = QQ(1, 2), QQ(2, 3), QQ(3, 4), QQ(4, 5)
PAIR = ParticleConfig(3, (1, 2))


@pytest.mark.parametrize("call, message", [
    (lambda: z_sum([U1, U2], P, ws=[W1]), "as many inhomogeneities"),
    (lambda: z_det_inhom([U1, U2], P, ws=[W1]), "as many inhomogeneities"),
    (lambda: z_det_hom(3, [U1, U2], P), "exactly n spectral"),
    (lambda: check_ik_properties(1, P, seed=0), "n >= 2"),
    (lambda: check_ik_properties(2, ParamSet.symbolic_canonical(), seed=0),
     "numeric ParamSet"),
    (lambda: apply_row_operator(
        "B", U1, StateVector.vacuum(3, P.one()),
        ParamSet(P.t, P.a, P.b, P.c, P.d, w=[W1, W2])),
     "inhomogeneity list length"),
    (lambda: wavefunction("psi", PAIR, [U1], P), "config size"),
    (lambda: matrix_element("A", PAIR, U1, PAIR, P), "unknown operator"),
    (lambda: matrix_element("B", PAIR, U1, ParticleConfig(4, (1,)), P),
     "different lattices"),
    (lambda: trace_wavefunction(PAIR, [U1], P), "config size"),
    (lambda: young_to_config((0, -1), 5), "negative part"),
    (lambda: family_poly("G", PAIR, [U1], P), "config size"),
    (lambda: grothendieck_det((1, 2), [U1, U2], W1), "not weakly decreasing"),
], ids=["z_sum-ws", "z_det_inhom-ws", "z_det_hom-n", "ik-n", "ik-symbolic",
        "row-operator-w", "wavefunction-size", "matrix-element-kind",
        "matrix-element-lattices", "trace-size", "young-negative",
        "family-size", "grothendieck-partition"])
def test_inconsistent_input_is_a_ring_error(call, message):
    with pytest.raises(RingError, match=message):
        call()
