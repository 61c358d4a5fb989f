"""Parameter sets: derivation of the constrained weights, sampling, modes."""

import pytest

from vertexpoly import params
from vertexpoly.params import ParamError, ParamSet
from vertexpoly.ring import QQ, RatFunc, Residue, canonical_vartable


def test_derived_weights_satisfy_both_constraints():
    p = ParamSet(QQ(1, 2), QQ(3), QQ(5), QQ(7), QQ(11))
    assert p.c * p.d + p.a * p.f == 0
    assert p.t * p.c * p.d + p.b * p.e == 0


def test_symbolic_derivation_satisfies_constraints():
    p = ParamSet.symbolic_canonical()
    assert (p.c * p.d + p.a * p.f).is_zero()
    assert (p.t * p.c * p.d + p.b * p.e).is_zero()
    assert p.symbolic


def test_t_equal_one_rejected():
    with pytest.raises(ParamError):
        ParamSet(QQ(1), QQ(3), QQ(5), QQ(7), QQ(11))


def test_zero_parameter_rejected():
    with pytest.raises(ParamError):
        ParamSet(QQ(1, 2), QQ(0), QQ(5), QQ(7), QQ(11))


def test_unchecked_constructor_admits_violations():
    p = ParamSet.unchecked(QQ(1, 2), QQ(3), QQ(5), QQ(7), QQ(11),
                           QQ(1), QQ(1))
    assert p.c * p.d + p.a * p.f != 0


def test_sampling_is_deterministic_and_valid():
    p1 = ParamSet.sample(42)
    p2 = ParamSet.sample(42)
    p3 = ParamSet.sample(43)
    assert (p1.t, p1.a, p1.b, p1.c, p1.d) == (p2.t, p2.a, p2.b, p2.c, p2.d)
    assert (p1.t, p1.a) != (p3.t, p3.a)
    assert p1.c * p1.d + p1.a * p1.f == 0


def test_sampled_inhomogeneities_are_distinct():
    p = ParamSet.sample(7, n_w=6)
    assert len(set(p.w)) == 6


def test_sampling_redraws_t_one_and_restarts_on_a_repeated_w(monkeypatch):
    # scripted draws: t = 1 is drawn again, and a repeated inhomogeneity
    # restarts the whole sample from a derived seed
    def run():
        script = iter([QQ(1), QQ(1, 2), QQ(3, 4), QQ(3, 4),
                       QQ(2, 3), QQ(5, 7), QQ(7, 5),
                       QQ(2), QQ(3), QQ(5), QQ(7)])
        states = []

        def scripted(rng):
            states.append(rng.getstate())
            return next(script)

        monkeypatch.setattr(params, "random_rational", scripted)
        p = ParamSet.sample(4, n_w=2)
        assert next(script, None) is None
        return p, states

    p, states = run()
    assert (p.t, p.a, p.b, p.c, p.d) == (QQ(2, 3), 2, 3, 5, 7)
    assert p.w == [QQ(5, 7), QQ(7, 5)]
    # the restart draws from a new stream, not the first attempt's
    assert states[:4] == [states[0]] * 4 and states[4] != states[0]
    again, again_states = run()
    assert (again.t, again.a, again.b, again.c, again.d, again.w) == \
        (p.t, p.a, p.b, p.c, p.d, p.w)
    assert again_states == states


def test_scalar_mode_helpers():
    num = ParamSet.sample(1)
    assert num.zero() == 0 and num.one() == 1
    sym = ParamSet.symbolic_canonical(n_u=2)
    assert isinstance(sym.one(), RatFunc)
    us = sym.spectral(2)
    assert [str(u.num) for u in us] == ["u1", "u2"]


def test_residue_params_have_residue_units():
    p = ParamSet.sample(1).map(Residue.of)
    assert isinstance(p.one(), Residue) and isinstance(p.zero(), Residue)
    assert p.one() == 1 and p.zero() == 0 and not p.symbolic


def test_map_applies_to_every_scalar():
    p = ParamSet.sample(3, n_w=2)
    doubled = p.map(lambda v: 2 * v)
    assert doubled.t == 2 * p.t and doubled.f == 2 * p.f
    assert doubled.w == [2 * w for w in p.w]


def test_symbolic_over_shared_table():
    vt = canonical_vartable(n_u=1, n_w=2)
    p = ParamSet.symbolic_over(vt, n_w=2)
    assert p.vars is vt
    assert len(p.w) == 2


def test_repr_names_the_mode_and_every_weight():
    p = ParamSet(QQ(1, 2), QQ(1), QQ(2), QQ(3), QQ(5))
    assert repr(p) == ("ParamSet<numeric>(t=1/2, a=1, b=2, c=3, d=5, "
                       "e=-15/4, f=-15)")
    assert repr(ParamSet.symbolic_canonical()) == (
        "ParamSet<symbolic>(t=t, a=a, b=b, c=c, d=d, e=(-t*c*d) / (b), "
        "f=(-c*d) / (a))")
