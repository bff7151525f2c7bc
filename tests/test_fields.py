import copy
import hashlib
import json
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from twistres.checks import check_identity_composition
from twistres.complexes import check_truncated_exactness
from twistres.errors import FieldError
from twistres.fields import Fp, PrimeField, Rationals, field_from_name
from twistres.instances import builtin_instance
from twistres.suite import run_suite


def test_rationals_parse_format_roundtrip():
    F = Rationals()
    assert F.parse("3/4") == Fraction(3, 4)
    assert F.parse("-2") == Fraction(-2)
    assert F.format(Fraction(3, 4)) == "3/4"


def test_prime_field_rejects_char_2_and_composites():
    with pytest.raises(FieldError):
        PrimeField(2)
    with pytest.raises(FieldError):
        PrimeField(9)
    with pytest.raises(FieldError):
        field_from_name("F2")


def test_field_from_name_variants():
    assert field_from_name("Q").characteristic == 0
    assert field_from_name("F5").p == 5
    assert field_from_name({"prime": 7}).p == 7
    assert field_from_name(3).p == 3
    for name in ("qq", "Rationals", "0"):
        assert field_from_name(name) == Rationals()
    for name in ("f5", "GF5", "GF(5)", " gf(5) ", "5"):
        assert field_from_name(name) == PrimeField(5)


@pytest.mark.parametrize("name", ["Fx", "GF", {"p": 5}, {"prime": "x"},
                                  {"prime": True}, "F", "x", 5.0,
                                  "FG7", "FFF5", "GFGF7", "F(5", "GF5)"])
def test_field_from_name_refuses_malformed_descriptors(name):
    # a descriptor naming no field is a FieldError, never a KeyError or a
    # ValueError from int()
    with pytest.raises(FieldError):
        field_from_name(name)


def test_fields_are_immutable_values():
    assert PrimeField(5) == PrimeField(5)
    assert hash(PrimeField(5)) == hash(PrimeField(5))
    assert PrimeField(5) != PrimeField(7) and PrimeField(5) != Rationals()
    assert Rationals() == Rationals() and hash(Rationals()) == hash(Rationals())
    for bad in (4, 2):
        with pytest.raises(FieldError):
            PrimeField(bad)
    F = PrimeField(5)
    for target, attr in ((F, "p"), (F, "one"), (Rationals(), "characteristic")):
        with pytest.raises(AttributeError):
            setattr(target, attr, 3)
    with pytest.raises(AttributeError):
        del F.p
    assert F.p == 5 and F.one is Fp(1, 5)


def test_fp_arithmetic_basics():
    F = PrimeField(5)
    a, b = F.from_int(3), F.from_int(4)
    assert a + b == F.from_int(2)
    assert a * b == F.from_int(2)
    assert a - b == F.from_int(4)
    assert (a / b) * b == a
    assert -a == F.from_int(2)
    assert not F.zero
    assert F.one
    assert F.parse("3/4") == a / b


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_fp_ring_laws(x, y):
    F = PrimeField(7)
    a, b = F.from_int(x), F.from_int(y)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + F.one) == a * b + a
    if b:
        assert (a / b) * b == a


@given(st.integers(-30, 30))
def test_fp_matches_integer_arithmetic(x):
    F = PrimeField(11)
    assert F.from_int(x) + F.from_int(x * x) == F.from_int(x + x * x)


def test_rationals_keep_integral_values_as_int():
    F = Rationals()
    assert type(F.zero) is int and type(F.one) is int
    assert type(F.from_int(-3)) is int
    assert type(F.parse("-2")) is int and type(F.parse("6/3")) is int
    assert type(F.parse("3/4")) is Fraction


def test_rationals_div_and_inv():
    F = Rationals()
    q = F.div(4, 2)
    assert q == 2 and type(q) is int
    half = F.div(1, 2)
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert type(F.div(Fraction(3, 2), Fraction(1, 2))) is int
    assert F.inv(-1) == -1 and type(F.inv(-1)) is int
    assert F.inv(Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        F.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_prime_field_div_and_inv():
    F = PrimeField(7)
    assert F.inv(F.from_int(3)) == F.from_int(5)
    assert F.div(F.from_int(1), F.from_int(3)) == F.from_int(5)
    assert F.inv(3) == F.from_int(5)
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)
    with pytest.raises(ZeroDivisionError):
        F.div(F.one, 7)


def test_fp_hash_agrees_with_eq():
    F = PrimeField(5)
    assert Fp(1, 5) == 1 and hash(Fp(1, 5)) == hash(1)
    assert len({Fp(1, 5), 1}) == 1
    assert len({Fp(6, 5), F.one, 1}) == 1
    assert {1: "unit"}[F.one] == "unit"
    assert {F.from_int(-1): "minus"}[4] == "minus"
    assert {(("x",), F.one): 0} == {(("x",), 1): 0}


def test_quantum_plane_over_q_has_fraction_inverse():
    # q = 2, so tau^-1 carries 1/2^k: the one built-in twist with
    # non-integral coefficients over Q, where a bare "/" on int
    # coefficients would leak floats
    inst = builtin_instance("quantum-plane", field="Q")
    tau = inst.tau
    x, y = tau.R.basis(1)[0], tau.S.basis(1)[0]
    value = tau.inverse(x, y)
    assert value == {(y, x): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in value.values())
    assert tau.apply(y, x) == {(x, y): 2}
    reports = run_suite(inst, hdeg=2, gdeg=2)
    assert len(reports) == 33 and all(r.ok for r in reports)
    # pinned from the Fraction-only scalar path: the reports must not move
    text = json.dumps([r.to_json() for r in reports], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fffe390fa6b8edd8c7268ce696c9b1fe019af88468fdc050352b3f92ce876c5e")


Q_AND_FP = ["example-5.2", "c2-skew", "quantum-plane", "c2-koszul-kxy"]


@pytest.mark.parametrize("name", Q_AND_FP)
def test_exactness_agrees_over_q_and_prime_fields(name):
    # none of these instances has a denominator or group order divisible by
    # 5 or 7, so the truncated strands have the same ranks over Q, F5 and F7
    def ranks(field):
        inst = builtin_instance(name, field=field, hdeg=2, gdeg=2)
        maps = inst.bar_maps()
        out = []
        for X in (maps.bar_A, maps.rbar_A, maps.Y, maps.prod_rbar):
            report = check_truncated_exactness(X, 2, 2, inst.graded)
            out.append([(e.position, e.degrees, e.dim, e.rank_out, e.rank_in,
                         e.composite_zero) for e in report.entries])
        return out

    over_q = ranks("Q")
    assert ranks("F5") == over_q
    assert ranks("F7") == over_q


@pytest.mark.parametrize("name", Q_AND_FP)
@pytest.mark.parametrize("field", ["Q", "F7"])
def test_aw_ez_is_the_identity_over_q_and_prime_fields(name, field):
    maps = builtin_instance(name, field=field, hdeg=2, gdeg=2).bar_maps()
    report = check_identity_composition(maps.aw_reduced, maps.ez_reduced, 2, 2,
                                        instance=name)
    assert report.passed, report.witness


def test_fp_residues_are_shared_and_immutable():
    F = PrimeField(5)
    a = Fp(7, 5)
    assert a is Fp(2, 5) and a is F.from_int(-3)
    assert F.zero is Fp(0, 5) and F.one is Fp(6, 5)
    assert a * F.one is a and a + F.zero is a
    with pytest.raises(AttributeError):
        a.v = 3
    with pytest.raises(AttributeError):
        del a.p
    assert a.v == 2 and a.p == 5
    assert len({Fp(1, 5), 1}) == 1
    assert copy.copy(a) is a and copy.deepcopy(a) is a
    assert pickle.loads(pickle.dumps(a)) is a
    assert pickle.loads(pickle.dumps([F, F.one]))[1] is F.one


@pytest.mark.parametrize("op", ["add", "sub", "mul", "truediv"])
def test_fp_operators_take_ints_on_both_sides_and_reject_mixed_moduli(op):
    fn = getattr(operator, op)
    p = 7
    for x in range(-8, 9):
        for y in range(-8, 9):
            if op == "truediv" and y % p == 0:
                continue
            want = Fp(x * pow(y, -1, p), p) if op == "truediv" else Fp(fn(x, y), p)
            assert fn(Fp(x, p), Fp(y, p)) is want
            assert fn(Fp(x, p), y) is want
            if op == "truediv" and x % p == 0:
                continue
            want = Fp(y * pow(x, -1, p), p) if op == "truediv" else Fp(fn(y, x), p)
            assert fn(y, Fp(x, p)) is want
    with pytest.raises(FieldError):
        fn(Fp(1, 5), Fp(1, 7))
    with pytest.raises(FieldError):
        fn(Fp(1, 7), Fp(1, 5))
    with pytest.raises(TypeError):
        fn(Fp(1, 5), Fraction(1, 2))


def test_fp_large_prime_keeps_only_the_residues_produced():
    p = 1_000_003
    a, b = Fp(123_456_789, p), Fp(-5, p)
    values = [a, b, a + b, a - b, a * b, a / b, -a, a * a * a]
    assert [x.v for x in values] == [
        123_456_789 % p, p - 5, (123_456_789 - 5) % p, (123_456_789 + 5) % p,
        (123_456_789 * -5) % p, (123_456_789 * pow(-5, -1, p)) % p,
        -123_456_789 % p, pow(123_456_789, 3, p)]
    assert (a / b) * b is a
    assert set(a._residues) == {x.v for x in values} | {a.v * a.v % p}


def test_fp_reflected_operators_count_once(monkeypatch):
    # a tracer that wraps the operators in Fp.__dict__ sees one call per
    # operation, also when the int is on the left
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__"):
        def counted(self, other, _fn=Fp.__dict__[name], _name=name):
            calls.append(_name)
            return _fn(self, other)
        monkeypatch.setattr(Fp, name, counted)
    a = Fp(3, 7)
    assert [2 + a, 2 - a, 2 * a, 2 / a] == [5, 6, 6, 3]
    assert calls == ["__radd__", "__rsub__", "__rmul__", "__rtruediv__"]
