import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
    x, y = tau.R.generator_words()[0], tau.S.generator_words()[0]
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


@pytest.mark.parametrize("name", ["example-5.2", "c2-skew", "quantum-plane"])
def test_exactness_agrees_over_q_and_prime_fields(name):
    # none of these instances has a denominator or group order divisible by
    # 5 or 7, so the truncated strands have the same ranks over Q, F5 and F7
    def ranks(field):
        inst = builtin_instance(name, field=field, hdeg=2, gdeg=2)
        maps = inst.bar_maps()
        out = []
        for X in (maps.bar_A, maps.rbar_A, maps.Y, maps.prod_rbar):
            report = check_truncated_exactness(X, 2, 2, inst.graded)
            out.append([(e.dim, e.rank_out, e.rank_in, e.composite_zero)
                        for e in report.entries])
        return out

    over_q = ranks("Q")
    assert ranks("F5") == over_q
    assert ranks("F7") == over_q
