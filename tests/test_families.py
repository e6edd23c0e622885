from fractions import Fraction

import pytest

from ddepoly.dde import generate
from ddepoly.families import FamilySpec, ParamRule, coefficient_source, oracle_poly, stirling2
from ddepoly.poly import Poly

P = Poly.rational


def pair(kind, n, **params):
    return coefficient_source(FamilySpec(kind, params)).pair(n)


def test_hermite_display():
    c = pair("hermite", 7)
    assert c.A == P([-1]) and c.B == P([0, 2])


def test_laguerre_display_n0():
    c = pair("laguerre", 0, alpha=0)
    assert c.A == P([0, 1]) and c.B == P([1, -1])


def test_jacobi_display_n0():
    c = pair("jacobi", 0, alpha=0, beta=0)
    assert c.A == P([-1, 0, 1]) and c.B == P([0, 1])


def test_jacobi_denominator_guard():
    with pytest.raises(ValueError):
        FamilySpec("jacobi", {"alpha": -2, "beta": 0})


def test_model_displays():
    c = pair("bell", 9)
    assert c.A == P([0, 1]) and c.B == P([0, 1])
    c = pair("euler_frobenius", 4, kappa="1", r="1")
    assert c.A == P([1, 0, -1]) and c.B == P([0, -2])
    c = pair("hyp2f1", 3, b=20, c=1)
    assert c.A == P([0, 1, -1]) and c.B == P([4, -20])
    c = pair("hermite_like", 2, kappa=3)
    assert c.A == P([3]) and c.B == P([0, -6])
    c = pair("vertgeim", 1, a="2", b="3", alpha="1/2")
    assert c.A == P([-3, 0, 2]) and c.B == P([0, 1])


def test_model_constraints():
    with pytest.raises(ValueError):
        pair("euler_frobenius", 0, kappa="1", r="-1")
    with pytest.raises(ValueError):
        pair("euler_frobenius", 0, kappa="0", r="1")
    with pytest.raises(ValueError):
        pair("vertgeim", 0, a="0", b="1", alpha="1")


def test_stirling_values():
    assert stirling2(3, 2) == 3
    assert stirling2(6, 6) == 1
    assert stirling2(4, 1) == 1
    assert stirling2(0, 0) == 1
    # row sums are the set-partition counts 1, 1, 2, 5, 15, 52, 203
    bells = [sum(stirling2(n, k) for k in range(n + 1)) for n in range(7)]
    assert bells == [1, 1, 2, 5, 15, 52, 203]
    with pytest.raises(ValueError):
        stirling2(3, 4)


def test_bell_oracle():
    assert oracle_poly("bell", 3) == P([0, 1, 3, 1])
    assert oracle_poly("bell", 0) == P([1])


def test_hyp2f1_oracle_two_terms():
    assert oracle_poly("hyp2f1", 1, b=2, c=1) == P([1, -2])


def test_hermite_oracle():
    assert oracle_poly("hermite", 2) == P([-2, 0, 4])
    assert oracle_poly("hermite", 3) == P([0, -12, 0, 8])


def test_bell_generation_equals_stirling():
    seq = generate(coefficient_source(FamilySpec("bell")), 15)
    for n in range(16):
        assert seq[n] == oracle_poly("bell", n)


def test_hyp2f1_generation_equals_series():
    params = {"b": Fraction(20), "c": Fraction(1)}
    seq = generate(coefficient_source(FamilySpec("hyp2f1", params)), 10)
    for n in range(11):
        assert seq[n] == oracle_poly("hyp2f1", n, **params)
    # rational non-integer parameters too
    params = {"b": Fraction(7, 2), "c": Fraction(3, 4)}
    seq = generate(coefficient_source(FamilySpec("hyp2f1", params)), 6)
    for n in range(7):
        assert seq[n] == oracle_poly("hyp2f1", n, **params)


@pytest.mark.parametrize(
    "kind,params",
    [
        ("hermite", {}),
        ("laguerre", {"alpha": Fraction(1)}),
        ("laguerre", {"alpha": Fraction(-1, 3)}),
        ("jacobi", {"alpha": Fraction(1, 2), "beta": Fraction(1, 2)}),
        ("jacobi", {"alpha": Fraction(2), "beta": Fraction(-1, 2)}),
    ],
)
def test_classical_generation_equals_recurrence(kind, params):
    seq = generate(coefficient_source(FamilySpec(kind, params)), 20)
    for n in range(21):
        assert seq[n] == oracle_poly(kind, n, **params)


def test_param_rule_parse():
    assert ParamRule.parse("n+1").at(4) == 5
    assert ParamRule.parse("2*n").at(3) == 6
    assert ParamRule.parse("1/2+3*n").at(2) == Fraction(13, 2)
    assert ParamRule.parse("-5").at(9) == -5
    assert ParamRule.parse([1, 4, 9]).at(2) == 9
    with pytest.raises(IndexError):
        ParamRule.parse([1]).at(3)
    with pytest.raises(ValueError):
        ParamRule.parse("n**2")


def test_family_spec_from_dict():
    spec = FamilySpec.from_dict({"kind": "euler_frobenius", "kappa": "1", "r": "n+1"})
    src = coefficient_source(spec)
    assert src.pair(2).B == P([0, -6])
    with pytest.raises(ValueError):
        FamilySpec.from_dict({"kind": "nope"})


@pytest.mark.parametrize("kind, params, refused", [
    ("bell", {"zzz": "1"}, "zzz"),
    ("hermite", {"kappa": "1"}, "kappa"),
    ("jacobi", {"alpha": "1/2", "beta": "1/2", "b": "1"}, "b"),
    ("laguerre", {"alpha": "1/2", "beta": "1"}, "beta"),
    ("euler_frobenius", {"kappa": "1", "r": "n+1", "alpha": "1"}, "alpha"),
    ("hermite_like", {"kappa": "2", "r": "1"}, "r"),
    ("vertgeim", {"a": "1", "b": "4", "alpha": "1", "c": "1"}, "c"),
    ("hyp2f1", {"b": "20", "c": "1", "alpha": "1"}, "alpha"),
    ("freud", {"t": "0", "kappa": "1"}, "kappa"),
])
def test_family_spec_refuses_parameters_the_family_does_not_take(kind, params, refused):
    FamilySpec(kind, {k: v for k, v in params.items() if k != refused})
    with pytest.raises(ValueError, match=f"^{kind} takes no parameter {refused}$"):
        FamilySpec(kind, params)
