import ast
import itertools
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import twistres
from twistres.awez import enumerate_shuffles, group_closed_aw, group_closed_ez
from twistres.checks import check_chain_map, check_identity_composition
from twistres.fields import Rationals
from twistres.instances import BUILTIN_NAMES, builtin_instance, parse_instance
from twistres.linalg import accumulate
from twistres.tensors import FreeElement, FullSlot, Signature
from twistres.twisting import BarLeftCompat, BarRightCompat

Q = Rationals()


# -- shuffles -----------------------------------------------------------------


def test_shuffles_2_1_match_listed_permutations():
    shuffles = enumerate_shuffles(2, 1)
    assert [(s.cycle_notation(), s.sign) for s in shuffles] == [
        ("(1)", 1), ("(2 3)", -1), ("(1 2 3)", 1)]


def test_shuffles_0_m_identity_only():
    for m in range(4):
        shuffles = enumerate_shuffles(0, m)
        assert len(shuffles) == 1
        assert shuffles[0].sign == 1
        assert shuffles[0].images == tuple(range(m))


def test_shuffles_2_3_contains_example_cycle():
    shuffles = enumerate_shuffles(2, 3)
    assert len(shuffles) == 10
    wanted = [s for s in shuffles if s.cycle_notation() == "(1 3)(2 5 4)"]
    assert len(wanted) == 1
    assert wanted[0].sign == -1


def brute_force_shuffles(ell, m):
    out = []
    for perm in itertools.permutations(range(ell + m)):
        if list(perm[:ell]) == sorted(perm[:ell]) and \
                list(perm[ell:]) == sorted(perm[ell:]):
            inv = sum(1 for a in range(ell + m) for b in range(a + 1, ell + m)
                      if perm[a] > perm[b])
            out.append((perm, -1 if inv % 2 else 1))
    return sorted(out)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3))
def test_shuffle_count_and_signs_against_brute_force(ell, m):
    shuffles = enumerate_shuffles(ell, m)
    assert len(shuffles) == comb(ell + m, ell)
    assert sorted((s.images, s.sign) for s in shuffles) == \
        brute_force_shuffles(ell, m)


def test_shuffles_are_built_once_per_shape():
    first = enumerate_shuffles(2, 3)
    assert isinstance(first, tuple)
    assert enumerate_shuffles(2, 3) is first


def test_shuffle_permute_places_values():
    sh = [s for s in enumerate_shuffles(2, 3)
          if s.cycle_notation() == "(1 3)(2 5 4)"][0]
    assert sh.permute(("r1", "r2", "1", "1", "1")) == \
        ("1", "1", "r1", "1", "r2")
    assert sh.permute(("1", "1", "s3", "s4", "s5")) == \
        ("s3", "s4", "1", "s5", "1")


# -- unshuffle / shuffle ------------------------------------------------------


def test_group_unshuffle_closed_formula_degree_two():
    # f1g1 (x) f2g2 (x) f3g3 (x) f4g4 -> f1 (x) g1.f2 (x) g1g2.f3 (x) ... (x) g's
    inst = builtin_instance("c2-skew")
    maps = inst.bar_maps()
    e, g = 0, 1
    f = [(1,), (2,), (1,), (3,)]
    gs = [g, g, e, g]
    word = tuple((f[k], gs[k]) for k in range(4))
    result = maps.twisted_unshuffle.apply_word(2, (), word)
    # prefix products: e, g, g*g=e, e*e... gs = g,g,e,g: prefixes e, g, e, e
    # signs: f2 twisted by g: (-1)^2 = +1; f3 by g*g = e: +1; f4 by e: +1
    expected_word = (f[0], f[1], f[2], f[3], gs[0], gs[1], gs[2], gs[3])
    assert result.data == {((), expected_word): Q.one}
    f = [(0,), (1,), (1,), (1,)]
    gs = [g, e, g, e]
    word = tuple((f[k], gs[k]) for k in range(4))
    result = maps.twisted_unshuffle.apply_word(2, (), word)
    # f2 twisted by g (sign -1), f3 by g (sign -1), f4 by g*g... prefixes:
    # e, g, g, e -> signs (+ for f1)(-1 for x)(-1 for x)(+1) = +1
    expected_word = (f[0], f[1], f[2], f[3], gs[0], gs[1], gs[2], gs[3])
    assert result.data == {((), expected_word): Q.one}


def test_group_shuffle_closed_formula_inverse_prefixes():
    inst = builtin_instance("c2-skew")
    maps = inst.bar_maps()
    e, g = 0, 1
    word = ((1,), (1,), (1,), (1,), g, g, e, g)
    result = maps.twisted_shuffle.apply_word(2, (), word)
    # f2 picks up (g1)^-1 = g: sign -1; f3 picks up (g1g2)^-1 = e: +;
    # f4 picks up (g1g2g3)^-1 = e: +
    expected = (((1,), g), ((1,), g), ((1,), e), ((1,), g))
    assert result.data == {((), expected): Q.from_int(-1)}


def test_unshuffle_round_trips_both_orders():
    for name in ("example-5.2", "quantum-plane", "c2-skew"):
        inst = builtin_instance(name)
        maps = inst.bar_maps()
        for d in range(3):
            for comp, word in maps.bar_A.basis(2, d):
                elt = maps.bar_A.single(2, comp, word)
                there = maps.twisted_unshuffle.apply(2, elt)
                assert maps.twisted_shuffle.apply(2, there) == elt
            for comp, word in maps.Y.basis(2, d):
                elt = maps.Y.single(2, comp, word)
                back = maps.twisted_shuffle.apply(2, elt)
                assert maps.twisted_unshuffle.apply(2, back) == elt


def reference_unshuffle(maps, n, word):
    """The twisted unshuffle with every crossing sent through tau.apply."""
    states = {tuple(x for pair in word for x in pair): maps.A.field.one}
    for layer in range(1, n + 2):
        for p in [layer + 2 * t for t in range(n + 2 - layer)]:
            new = {}
            for slots, c in states.items():
                for (rw, sw), c2 in maps.tau.apply(slots[p], slots[p + 1]).items():
                    accumulate(new, slots[:p] + (rw, sw) + slots[p + 2:], c * c2)
            states = new
    return [(((), slots), c) for slots, c in states.items()]


def reference_shuffle(maps, n, word):
    """The twisted shuffle with every crossing sent through tau.inverse."""
    states = {tuple(word): maps.A.field.one}
    for layer in range(n + 1, 0, -1):
        for p in [layer + 2 * t for t in range(n + 2 - layer)]:
            new = {}
            for slots, c in states.items():
                for (sw, rw), c2 in maps.tau.inverse(slots[p], slots[p + 1]).items():
                    accumulate(new, slots[:p] + (sw, rw) + slots[p + 2:], c * c2)
            states = new
    return [(((), tuple((slots[2 * k], slots[2 * k + 1]) for k in range(n + 2))), c)
            for slots, c in states.items()]


@pytest.mark.parametrize("name, n_max, d_max", [
    pytest.param(name, *((2, 1) if name == "s3-perm-kxyz" else (3, 2)), id=name)
    for name in BUILTIN_NAMES])
def test_unit_crossings_match_the_twist(name, n_max, d_max):
    # the block crossings through the iterated twists agree with one tau (or
    # tau^(-1)) per crossing, layer by layer, units and a twist that breaks
    # the hexagon included: the terms, their coefficients and their order
    maps = builtin_instance(name).bar_maps()
    for n in range(n_max + 1):
        for d in range(d_max + 1):
            for comp, word in maps.bar_A.basis(n, d):
                got = maps.twisted_unshuffle.apply_word(n, comp, word).data.items()
                assert list(got) == reference_unshuffle(maps, n, word), word
            for comp, word in maps.Y.basis(n, d):
                got = maps.twisted_shuffle.apply_word(n, comp, word).data.items()
                assert list(got) == reference_shuffle(maps, n, word), word


# -- Y is the diagonal of bar(R) (x)_tau bar(S) ------------------------------


def reference_y_act_word(Y, left, right, n, a_left, word, a_right):
    """Y's action written out on its own words: the S-letter of a_left
    crosses the R-block by ``left``, the R-letter of a_right crosses the
    S-block back by ``right``, the middle pair by tau, and the outer letters
    of both blocks are multiplied."""
    R, S, tau = Y.R, Y.S, Y.A.tau
    (rL, sL), (rR, sR) = a_left, a_right
    rpart, spart = word[:n + 2], word[n + 2:]
    out = FreeElement(Y.term(n))
    for (rblock, s1), c1 in left.apply(n, sL, rpart).items():
        for (r1, sblock), c2 in right.apply(n, spart, rR).items():
            for (r2, s2), c3 in tau.apply(s1, r1).items():
                for w0, c4 in R.mul_words(rL, rblock[0]).items():
                    for wl, c5 in R.mul_words(rblock[-1], r2).items():
                        new_r = (w0,) + rblock[1:-1] + (wl,)
                        for v0, c6 in S.mul_words(s2, sblock[0]).items():
                            for vl, c7 in S.mul_words(sblock[-1], sR).items():
                                new_s = (v0,) + sblock[1:-1] + (vl,)
                                out.add_term((), new_r + new_s,
                                             c1 * c2 * c3 * c4 * c5 * c6 * c7)
    return out


def reference_y_aug_word(Y, word):
    rpart, spart = word[:2], word[2:]
    return Y.A.pair_element(Y.R.element(Y.R.mul_words(*rpart)),
                            Y.S.element(Y.S.mul_words(*spart)))


def reference_y_free_generators(Y, n, d):
    R, S = Y.R, Y.S
    out = []
    for dr in range(d + 1):
        for rw in Signature([FullSlot(R)] * n).words(dr):
            for sw in Signature([FullSlot(S)] * n).words(d - dr):
                word = (R.unit,) + rw + (R.unit, S.unit) + sw + (S.unit,)
                out.append(Y.single(n, (), word))
    return out


def quantum_plane(x, y, q):
    return {"family": "rewriting", "generators": [x, y],
            "rules": [{"left": f"{y}*{x}", "value": [{"word": f"{x}*{y}",
                                                      "coeff": q}]}]}


# quantum planes (y x = 2 x y, v u = 5 u v) twisted by q = 3: the
# multiplications and crossings of the action carry non-unit coefficients
WEIGHTED_PLANE = {
    "name": "weighted-plane", "field": "Q", "budgets": {"hdeg": 2, "gdeg": 2},
    "R": quantum_plane("x", "y", "2"), "S": quantum_plane("u", "v", "5"),
    "twist": {"kind": "bicharacter", "q": "3"}}


@pytest.mark.parametrize("name", ["example-5.2", "c2-skew", "weighted-plane"])
def test_y_reads_action_augmentation_and_generators_from_prod_bar(name):
    # Y_n is prod_bar's bidegree (n, n): its action, augmentation and free
    # generators, read from prod_bar, equal the formulas written on Y's own
    # words, terms and their order included, for non-unit letters on both
    # sides and for elements with non-unit coefficients
    inst = (parse_instance(WEIGHTED_PLANE) if name == "weighted-plane"
            else builtin_instance(name))
    maps = inst.bar_maps()
    Y, A, F = maps.Y, maps.A, maps.A.field
    left = BarLeftCompat(A.tau, reduced=False)
    right = BarRightCompat(A.tau, reduced=False)
    letters = A.basis(0) + A.basis(1)
    weighted = A.element({w: F.from_int(k + 2) for k, w in enumerate(letters)})
    for n in range(3):
        for d in range(3):
            assert Y.free_generators(n, d) == reference_y_free_generators(Y, n, d)
            for comp, word in Y.basis(n, d):
                if n == 0:
                    assert Y.aug_word(comp, word) == reference_y_aug_word(Y, word)
                for a in letters:
                    for b in letters:
                        got = Y.act_word(n, a, comp, word, b)
                        want = reference_y_act_word(Y, left, right, n, a, word, b)
                        assert list(got.data.items()) == list(want.data.items())
                elt = Y.single(n, comp, word, F.from_int(3))
                want = Y.term(n).zero()
                for a, ca in weighted.data.items():
                    for b, cb in weighted.data.items():
                        want.add_elt(reference_y_act_word(Y, left, right, n, a,
                                                          word, b),
                                     factor=ca * F.from_int(3) * cb)
                assert Y.act(n, weighted, elt, weighted) == want


@pytest.mark.parametrize("name", ["c2-skew", "c2-koszul-kxy"])
def test_each_crossing_is_built_once(name):
    # Y acts through prod_bar, the unshuffle crosses by prod_bar.tau_C, and
    # the Koszul-smash X crosses by prod_rbar's maps, restricted to K on the
    # left: no complex or map owns a crossing of its own
    inst = builtin_instance(name, hdeg=2, gdeg=2)
    maps = inst.bar_maps()
    X = inst.koszul_smash_complex()
    assert maps.Y.P is maps.prod_bar
    assert X.tau_C.bar is maps.prod_rbar.tau_C
    assert X.tau_D is maps.prod_rbar.tau_D
    tau_B = maps.prod_bar.tau_C
    for cache in (tau_B._cache, maps.prod_bar.tau_D._cache):
        cache.clear()
    g, x = maps.A.basis(0)[-1], maps.A.basis(1)[-1]
    word = maps.bar_A.basis(2, 2)[-1][1]
    maps.twisted_unshuffle.apply_word(2, (), word)
    crossed = set(tau_B._cache)
    assert crossed
    for comp, yword in maps.Y.basis(1, 2):
        maps.Y.act_word(1, g, comp, yword, x)
    assert len(tau_B._cache) > len(crossed)
    assert maps.prod_bar.tau_D._cache


def test_bar_crossings_are_constructed_in_twisted_bar_maps_only():
    # every BarLeftCompat and BarRightCompat of the package is built by
    # TwistedBarMaps, the one owner of the bar crossings
    owners = set()

    def visit(node, module, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("BarLeftCompat", "BarRightCompat")):
            owners.add((module, cls))
        for child in ast.iter_child_nodes(node):
            visit(child, module, cls)

    for path in sorted(Path(twistres.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
    assert owners == {("awez.py", "TwistedBarMaps")}


# -- face and shuffle maps ----------------------------------------------------


def test_front_back_face_summand_example():
    # n = 2, l = 1 summand on 1 (x) r1 (x) r2 (x) 1 | 1 (x) s1 (x) s2 (x) 1:
    # (r1) (x) r2 (x) 1 | 1 (x) s1 (x) (s2) with sign (-1)^(1*1)
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()
    u, r1, r2, s1, s2 = (0,), (1,), (2,), (1,), (2,)
    word = (u, r1, r2, u, u, s1, s2, u)
    result = maps.front_back_face.apply_word(2, (), word)
    summand_11 = {key: c for key, c in result.data.items() if key[0] == (1, 1)}
    assert summand_11 == {((1, 1), (r1, r2, u, u, s1, s2)): Q.from_int(-1)}
    # l = 0 front product is the unit: identity-shaped summand
    summand_20 = {key: c for key, c in result.data.items() if key[0] == (2, 0)}
    assert summand_20 == {((2, 0), (u, r1, r2, u, u, (3,))): Q.one}


def test_front_back_face_degree_zero_identity():
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()
    word = ((2,), (1,), (1,), (3,))
    result = maps.front_back_face.apply_word(0, (), word)
    assert result.data == {((0, 0), word): Q.one}


def test_shuffle_map_2_3_summand_pinned_value():
    # the (2,3)-shuffle sigma = (1 3)(2 5 4) sends 1(x)r1(x)r2(x)1 | 1(x)s3(x)s4(x)s5(x)1
    # to 1 (x) (1,1,r1,1,r2) (x) 1 | 1 (x) (s3,s4,1,s5,1) (x) 1
    inst = builtin_instance("example-5.2", hdeg=5)
    maps = inst.bar_maps()
    u = (0,)
    r1, r2 = (1,), (2,)
    s3, s4, s5 = (1,), (2,), (3,)
    word = (u, r1, r2, u, u, s3, s4, s5, u)
    result = maps.shuffle_map.apply_word(5, (2, 3), word)
    target_word = (u, u, u, r1, u, r2, u) + (u, s3, s4, u, s5, u, u)
    assert target_word in {key[1] for key in result.data}
    # its coefficient is sgn(sigma) = -1 (theta carries no bidegree prefactor)
    assert result.data[((), target_word)] == Q.from_int(-1)


def test_shuffle_map_bidegree_n0_single_identity_shuffle():
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()
    u = (0,)
    word = (u, (1,), (2,), u, u, u)
    result = maps.shuffle_map.apply_word(2, (2, 0), word)
    assert result.data == {((), (u, (1,), (2,), u, u, u, u, u)): Q.one}


# -- the pinned group EZ value -------------------------------------------------


def test_group_ez_degree_three_pinned_value():
    # EZ_bar(1 (x) f (x) 1 (x) 1 (x) g2 (x) g3 (x) 1) =
    #   1 (x) f (x) g2 (x) g3 (x) 1  -  1 (x) g2 (x) g2^-1.f (x) g3 (x) 1
    #   + 1 (x) g2 (x) g3 (x) (g2g3)^-1.f (x) 1
    inst = builtin_instance("c2-skew")
    maps = inst.bar_maps()
    e, g = 0, 1
    u, f = (0,), (3,)   # f = x^3, so g.f = -f and signs are visible
    word = (u, f, u, e, g, g, e)
    result = maps.ez_unreduced.apply_word(3, (1, 2), word)
    A_unit = (u, e)
    t1 = (A_unit, (f, e), (u, g), (u, g), A_unit)
    t2 = (A_unit, (u, g), (f, e), (u, g), A_unit)
    t3 = (A_unit, (u, g), (u, g), (f, e), A_unit)
    # middle term: shuffle sign -1 times g2^-1.f = -f gives +f (x) 1_G;
    # last term: (g2 g3)^-1 = e leaves f alone, shuffle sign +1
    assert result.data == {((), t1): Q.one,
                           ((), t2): Q.one,
                           ((), t3): Q.one}


# -- example-5.2: the frozen a -> b -> c values --------------------------------


def example_52_elements(maps):
    u, x, y, y2 = (0,), (1,), (1,), (2,)
    A_unit = (u, u)
    a = maps.rbar_A.single(3, (), (A_unit, (u, y2), (x, u), (x, u), A_unit))
    b = maps.prod_rbar.term(3).zero()
    b.add_term((2, 1), (u, x, x, u, u, y2, u), Q.one)
    b.add_term((2, 1), (u, x, x, u, u, y, u), Q.from_int(4))
    c = maps.rbar_A.term(3).zero()
    c.add_term((), (A_unit, (x, u), (x, u), (u, y2), A_unit), Q.one)
    c.add_term((), (A_unit, (x, u), (x, u), (u, y), A_unit), Q.from_int(4))
    c.add_term((), (A_unit, (u, y2), (x, u), (x, u), A_unit), Q.one)
    c.add_term((), (A_unit, (x, u), (u, y2), (x, u), A_unit), Q.from_int(-1))
    c.add_term((), (A_unit, (x, u), (u, y), (x, u), A_unit), Q.from_int(-2))
    return a, b, c


def test_example_52_frozen_values():
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()
    a, b, c = example_52_elements(maps)
    assert maps.aw_reduced.apply(3, a) == b
    assert maps.ez_reduced.apply(3, b) == c
    assert maps.aw_reduced.apply(3, c) == b
    assert maps.aw_reduced.apply(3, maps.ez_reduced.apply(3, b)) == b
    assert maps.ez_reduced.apply(3, maps.aw_reduced.apply(3, a)) != a


# -- chain squares and the composition identity -------------------------------


@pytest.mark.parametrize("name", ["example-5.2", "c2-skew", "quantum-plane"])
def test_chain_squares_small_budget(name):
    inst = builtin_instance(name)
    maps = inst.bar_maps()
    for f in (maps.twisted_unshuffle, maps.twisted_shuffle,
              maps.aw_unreduced, maps.ez_unreduced,
              maps.aw_reduced, maps.ez_reduced):
        report = check_chain_map(f, 2, 2, instance=name)
        assert report.passed, report.witness


@pytest.mark.parametrize("name", ["example-5.2", "c2-skew", "quantum-plane"])
def test_aw_ez_identity_small_budget(name):
    inst = builtin_instance(name)
    maps = inst.bar_maps()
    report = check_identity_composition(maps.aw_reduced, maps.ez_reduced,
                                        3, 3, instance=name)
    assert report.passed, report.witness


def test_ez_aw_not_identity():
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()
    report = check_identity_composition(maps.ez_reduced, maps.aw_reduced,
                                        3, 4, instance="example-5.2")
    assert not report.passed


def test_degree_zero_maps_are_the_evident_identifications():
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()
    u, x, y = (0,), (1,), (1,)
    word = ((x, u), (u, y))
    aw = maps.aw_unreduced.apply_word(0, (), word)
    assert aw.data == {((0, 0), (x, u, u, y)): Q.one}
    ez = maps.ez_unreduced.apply_word(0, (0, 0), (x, u, u, y))
    assert ez.data == {((), word): Q.one}


# -- closed group formulas ----------------------------------------------------


@pytest.mark.parametrize("name", ["c2-skew", "c2-swap-kxy"])
def test_closed_formulas_match_generic(name):
    inst = builtin_instance(name)
    maps = inst.bar_maps()
    action = inst.action
    for n in range(3):
        for d in range(3):
            for comp, word in maps.rbar_A.basis(n, d):
                assert group_closed_aw(maps, action, n, word, reduced=True) \
                    == maps.aw_reduced.apply_word(n, comp, word)
            for comp, word in maps.prod_rbar.basis(n, d):
                assert group_closed_ez(maps, action, n, comp, word, reduced=True) \
                    == maps.ez_reduced.apply_word(n, comp, word)


def test_closed_formulas_match_generic_unreduced():
    inst = builtin_instance("c2-skew")
    maps = inst.bar_maps()
    action = inst.action
    for n in range(3):
        for d in range(2):
            for comp, word in maps.bar_A.basis(n, d):
                assert group_closed_aw(maps, action, n, word, reduced=False) \
                    == maps.aw_unreduced.apply_word(n, comp, word)
