"""Exact six-vertex lattice computations and their symmetric polynomials.

Subpackage map:

- `ring`: sparse multivariate polynomials and rational functions over big
  rationals, with an exact fraction-free determinant, and the prime field
  GF(2^61 - 1) that eval-mode checks run in.
- `params`: the constrained weight-parameter sets (numeric or symbolic).
- `lattice`: local weights, row operators, wavefunctions, intertwining
  checkers.
- `sympoly`: the four closed-form families, skew factors, and the
  bialternant degeneration.
- `dwbp`: packed-boundary partition functions in sum and determinant form.
- `mprod`: the auxiliary-space operator pair and its diagonalization.
- `verify`: named identity checks with two independent computation paths.
- `cli`: the `vertexpoly` command-line frontend.
"""

from .dwbp import check_ik_properties, z_det_hom, z_det_inhom, z_sum
from .lattice import (HoleConfig, ParticleConfig, StateVector,
                      all_particle_configs, apply_row_operator, check_rll,
                      check_ybe, l_weight, matrix_element, r_weight,
                      wavefunction, wavefunctions)
from .mprod import (k_closed_form, k_prefactor, mp_build, mp_diagonalized,
                    trace_wavefunction)
from .params import ParamError, ParamSet
from .ring import (QQ, MultiPoly, NonExactDivision, RatFunc, RingError,
                   VarTable, canonical_vartable, determinant, exact_divide,
                   poly_from_json, poly_to_json, random_point,
                   ratfunc_from_json, ratfunc_to_json)
from .sympoly import (config_to_young, degeneration_rhs, family_poly,
                      grothendieck_det, interlaces, skew_factor,
                      young_to_config)
from .verify import (CheckReport, CheckSpec, default_suite, run_check,
                     run_checks)

__version__ = "0.1.0"
