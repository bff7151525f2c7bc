"""Acceptance criteria, one test per criterion.

All arithmetic is exact: every comparison below is term-by-term equality of
sparse tensors, tolerance zero.  Budgets are pinned here; where a criterion
leaves the internal-degree window open, the pinned value is stated in the
test.  Each test prints one PASS line (visible with pytest -s or in the
captured summary).
"""

import time
from math import comb

import pytest

from twistres.awez import group_closed_aw, group_closed_ez
from twistres.checks import (SignCorruptedBar, check_bimodule_map,
                             check_chain_map, check_d_squared_report,
                             check_exactness_report)
from twistres.complexes import KoszulComplex
from twistres.fields import Rationals
from twistres.instances import builtin_instance
from twistres.algebras import PolynomialAlgebra

Q = Rationals()

THREE_INSTANCES = ("example-5.2", "c2-skew", "quantum-plane")


def report(criterion, detail, seconds=None):
    stamp = "" if seconds is None else f"  [{seconds:.2f}s]"
    print(f"ACCEPTANCE {criterion}: PASS  ({detail}){stamp}")


def test_criterion_1_example_52_reproduction():
    """AW(a) = b, EZ(b) = c, AW(c) = b, AW(EZ(b)) = b, EZ(AW(a)) != a."""
    t0 = time.perf_counter()
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()
    u, x, y, y2 = (0,), (1,), (1,), (2,)
    A1 = (u, u)
    a = maps.rbar_A.single(3, (), (A1, (u, y2), (x, u), (x, u), A1))
    b = maps.prod_rbar.term(3).zero()
    b.add_term((2, 1), (u, x, x, u, u, y2, u), Q.one)
    b.add_term((2, 1), (u, x, x, u, u, y, u), Q.from_int(4))
    c = maps.rbar_A.term(3).zero()
    c.add_term((), (A1, (x, u), (x, u), (u, y2), A1), Q.one)
    c.add_term((), (A1, (x, u), (x, u), (u, y), A1), Q.from_int(4))
    c.add_term((), (A1, (u, y2), (x, u), (x, u), A1), Q.one)
    c.add_term((), (A1, (x, u), (u, y2), (x, u), A1), Q.from_int(-1))
    c.add_term((), (A1, (x, u), (u, y), (x, u), A1), Q.from_int(-2))
    assert maps.aw_reduced.apply(3, a) == b
    assert maps.ez_reduced.apply(3, b) == c
    assert maps.aw_reduced.apply(3, c) == b
    assert maps.aw_reduced.apply(3, maps.ez_reduced.apply(3, b)) == b
    assert maps.ez_reduced.apply(3, maps.aw_reduced.apply(3, a)) != a
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "example-5.2: a -> b -> c reproduced exactly", elapsed)


@pytest.mark.parametrize("name", THREE_INSTANCES)
def test_criterion_2_aw_ez_identity(name):
    """AW o EZ = 1 on every free generator, n <= 4, internal degree <= 5."""
    t0 = time.perf_counter()
    inst = builtin_instance(name, hdeg=4, gdeg=6)
    maps = inst.bar_maps()
    count = 0
    for n in range(5):
        for d in range(6):
            for g in maps.prod_rbar.free_generators(n, d):
                count += 1
                assert maps.aw_reduced.apply(n, maps.ez_reduced.apply(n, g)) == g
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, f"{name}: AW o EZ = 1 on {count} free generators", elapsed)


@pytest.mark.parametrize("name", THREE_INSTANCES)
def test_criterion_3_chain_map_squares(name):
    """d o f = f o d for the six maps on all basis words, n <= 3.

    The criterion leaves the internal window open; pinned here at
    internal degree <= 3.
    """
    t0 = time.perf_counter()
    inst = builtin_instance(name)
    maps = inst.bar_maps()
    for f in (maps.twisted_unshuffle, maps.twisted_shuffle,
              maps.aw_unreduced, maps.ez_unreduced,
              maps.aw_reduced, maps.ez_reduced):
        rep = check_chain_map(f, 3, 3, instance=name)
        assert rep.passed, f"{f.name}: {rep.witness}"
    elapsed = time.perf_counter() - t0
    report(3, f"{name}: six chain-map squares at n <= 3, deg <= 3", elapsed)


def test_criterion_4_twist_axiom():
    """Hexagon on all basis quadruples within internal degree <= 4 for all
    built-in twists; the documented corrupted twist fails with a witness."""
    t0 = time.perf_counter()
    goods = ("example-5.2", "c2-skew", "quantum-plane", "c2-koszul-kxy",
             "c2-swap-kxy", "s3-perm-kxyz")
    total = 0
    for name in goods:
        inst = builtin_instance(name)
        ok, witness, count = inst.tau.check_axiom(4)
        assert ok, f"{name}: {witness}"
        total += count
    bad = builtin_instance("corrupted-twist")
    ok, witness, _ = bad.tau.check_axiom(4)
    assert not ok
    assert witness["quadruple"] == ("1", "z", "y", "x")
    elapsed = time.perf_counter() - t0
    report(4, f"hexagon on {total} quadruples; corrupted twist fails "
              f"at {witness['quadruple']}", elapsed)


@pytest.mark.parametrize("name,d_cap", [("c2-swap-kxy", 2), ("s3-perm-kxyz", 1)])
def test_criterion_5_group_closed_forms(name, d_cap):
    """Generic AW/EZ agree with the closed group formulas on all basis
    words, n <= 3.

    Pinned internal windows: degree <= 2 for C2 on two variables,
    <= 1 for S3 on three (the group direction is degree-0 and exhaustive).
    """
    t0 = time.perf_counter()
    inst = builtin_instance(name)
    maps = inst.bar_maps()
    action = inst.action
    words = 0
    for n in range(4):
        for d in range(d_cap + 1):
            for comp, word in maps.rbar_A.basis(n, d):
                words += 1
                assert group_closed_aw(maps, action, n, word, reduced=True) \
                    == maps.aw_reduced.apply_word(n, comp, word)
            for comp, word in maps.prod_rbar.basis(n, d):
                words += 1
                assert group_closed_ez(maps, action, n, comp, word, reduced=True) \
                    == maps.ez_reduced.apply_word(n, comp, word)
    elapsed = time.perf_counter() - t0
    report(5, f"{name}: closed forms match on {words} basis words", elapsed)


def test_criterion_6_koszul_dimensions():
    """dim Ktilde_n = binomial(m, n) for k[x_1..x_m], m <= 3, n <= 3."""
    t0 = time.perf_counter()
    for m in (1, 2, 3):
        R = PolynomialAlgebra(Q, [f"x{i+1}" for i in range(m)], 8)
        K = KoszulComplex(R, 3)
        for n in range(4):
            assert K.dim_tilde(n) == comb(m, n), (m, n)
    elapsed = time.perf_counter() - t0
    report(6, "dim Ktilde(n) = C(m, n) for m <= 3, n <= 3", elapsed)


@pytest.mark.parametrize("field", [None, "F3"])
def test_criterion_7_koszul_smash_pipeline(field):
    """pi o iota = 1 on all free generators of (K (x) rbar kC2)_n, n <= 3,
    with pi produced by bootstrap lifting, over Q and over F3."""
    t0 = time.perf_counter()
    inst = builtin_instance("c2-koszul-kxy", field=field)
    pipe = inst.koszul_pipeline(n_max=3, d_max=3)
    count = 0
    for n in range(4):
        for d in range(4):
            for g in pipe.X.free_generators(n, d):
                count += 1
                assert pipe.pi.apply(n, pipe.iota.apply(n, g)) == g
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    label = "Q" if field is None else field
    report(7, f"k[x,y] # kC2 over {label}: pi o iota = 1 on {count} "
              f"generators (bootstrap pi)", elapsed)


@pytest.mark.parametrize("name", THREE_INSTANCES)
def test_criterion_8_d_squared_and_exactness(name):
    """d^2 = 0 within budget and no homology in the truncated strands,
    n <= 2, internal degree <= 3, for bar, reduced bar, Koszul, Y and X."""
    t0 = time.perf_counter()
    inst = builtin_instance(name)
    maps = inst.bar_maps()
    complexes = [maps.bar_A, maps.rbar_A, maps.Y, maps.prod_bar,
                 maps.prod_rbar, inst.koszul_complex()]
    for X in complexes:
        rep = check_d_squared_report(X, 3, 3, instance=name)
        assert rep.passed, f"{X.name}: {rep.witness}"
    graded = inst.graded
    for X in (maps.bar_A, maps.rbar_A, maps.Y, maps.prod_rbar,
              inst.koszul_complex()):
        rep = check_exactness_report(X, 2, 3, graded, instance=name)
        assert rep.passed, f"{X.name}: {rep.witness}"
    elapsed = time.perf_counter() - t0
    report(8, f"{name}: d^2 = 0 and exact strands for "
              f"{len(complexes)} complexes", elapsed)


def test_criterion_9_negative_controls():
    """The harness flags the non-bimodule inclusion in_2 for a nontrivial
    twist and sign-corrupted differentials."""
    t0 = time.perf_counter()
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()
    rep = check_bimodule_map(maps.inclusion_reduced_product, 2, 3,
                             seed=0, exhaustive=True)
    assert not rep.passed and rep.witness
    bad = SignCorruptedBar(inst.A, n_max=3)
    assert not check_d_squared_report(bad, 3, 2).passed
    assert not check_exactness_report(bad, 2, 2, graded=False).passed
    elapsed = time.perf_counter() - t0
    report(9, "in_2 non-bimodule witness found; corrupted differential "
              "flagged by d^2 and exactness", elapsed)
