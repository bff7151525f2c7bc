import copy
import json

import pytest

from twistres.algebras import Group, GroupAlgebra, PolynomialAlgebra
from twistres.checks import check_identity_composition
from twistres.complexes import KoszulComplex, KoszulLeftCompat
from twistres.errors import ActionNotAdmissible, InstanceError
from twistres.fields import Rationals
from twistres.hopf import group_hopf, linear_group_action
from twistres.instances import builtin_instance, parse_instance
from twistres.suite import verify_reports
from twistres.twisting import BarLeftCompat, BarRightCompat

from test_twisting import assert_memo_matches_fresh

Q = Rationals()


def c2_hopf():
    return group_hopf(GroupAlgebra(Q, Group.cyclic(2), 8))


def test_group_hopf_axioms():
    hopf = c2_hopf()
    ok, failures = hopf.check_axioms(0)
    assert ok, failures
    s3 = group_hopf(GroupAlgebra(Q, Group.symmetric(3), 6))
    ok, failures = s3.check_axioms(0)
    assert ok, failures


def test_broken_hopf_axioms_detected():
    H = GroupAlgebra(Q, Group.cyclic(2), 8)
    hopf = c2_hopf()
    from twistres.hopf import HopfAlgebra

    bad = HopfAlgebra(H, hopf.coproduct, hopf.counit,
                      lambda w: {w: Q.one},         # identity antipode: wrong
                      lambda w: {w: Q.one})
    ok, failures = bad.check_axioms(0)
    # C2 is abelian of exponent 2, so g = g^-1 and the identity antipode is
    # actually correct; break the counit instead
    assert ok
    bad = HopfAlgebra(H, hopf.coproduct, lambda w: Q.zero,
                      hopf.antipode, hopf.antipode_inv)
    ok, failures = bad.check_axioms(0)
    assert not ok
    assert any(kind == "counit" for kind, *_ in failures)


def test_action_axiom_check_catches_shear():
    # g -> unipotent shear is multiplicative only if g^2 maps to the square;
    # for C2 the shear has infinite order, so the action table is invalid
    R = PolynomialAlgebra(Q, ["x", "y"], 6)
    hopf = c2_hopf()
    action = linear_group_action(hopf, R, {"g": [[1, 1], [0, 1]]})
    ok, failures = action.check(2)
    assert not ok


def test_action_axiom_check_passes_for_sign_and_swap():
    R = PolynomialAlgebra(Q, ["x", "y"], 6)
    hopf = c2_hopf()
    for M in ([[-1, 0], [0, -1]], [[0, 1], [1, 0]]):
        action = linear_group_action(hopf, R, {"g": M})
        ok, failures = action.check(3)
        assert ok, failures


def test_koszul_compat_sign_on_wedge():
    # C2 swapping x and y sends x^y = x(x)y - y(x)x to -(x^y):
    # tau_K(g (x) 1 (x) x^y (x) 1) = -(1 (x) x^y (x) 1) (x) g
    inst = builtin_instance("c2-swap-kxy")
    K = KoszulComplex(inst.R, 3)
    compat = KoszulLeftCompat(BarLeftCompat(inst.tau, reduced=True), K)
    unit = inst.R.unit
    g = 1
    result = compat.apply(2, g, (unit, 0, unit))
    assert result == {((unit, 0, unit), g): Q.from_int(-1)}
    # h = 1_H fixes everything
    assert compat.apply(2, 0, (unit, 0, unit)) == \
        {((unit, 0, unit), 0): Q.one}


def test_koszul_compat_degree_zero_is_diagonal_action():
    inst = builtin_instance("c2-skew")
    K = KoszulComplex(inst.R, 2)
    compat = KoszulLeftCompat(BarLeftCompat(inst.tau, reduced=True), K)
    x = (1,)
    g = 1
    assert compat.apply(0, g, (x, x)) == {((x, x), g): Q.one}
    assert compat.apply(0, g, (x, (2,))) == {((x, (2,)), g): Q.from_int(-1)}


def test_smash_twist_examples():
    # kC2 on k[x] with g.x = -x: tau(g (x) x) = -x (x) g
    inst = builtin_instance("c2-skew")
    g, x = 1, (1,)
    assert inst.tau.apply(g, x) == {((x, g)): Q.from_int(-1)}
    assert inst.tau.apply(0, x) == {((x, 0)): Q.one}
    # general group rule tau(g (x) f) = (g.f) (x) g on a swap action
    swap = builtin_instance("c2-swap-kxy")
    xw = swap.R.parse_word("x")
    yw = swap.R.parse_word("y")
    assert swap.tau.apply(1, xw) == {((yw, 1)): Q.one}


def test_smash_inverse_antipode_formula():
    # tau^-1(r (x) h) = h2 (x) (gamma^-1(h1)).r for group-likes: g (x) g^-1.r
    inst = builtin_instance("c2-swap-kxy")
    xw = inst.R.parse_word("x")
    yw = inst.R.parse_word("y")
    assert inst.tau.inverse(xw, 1) == {((1, yw)): Q.one}
    assert inst.tau.inverse(xw, 0) == {((0, xw)): Q.one}


def test_bar_compat_maps_on_c2_skew():
    inst = builtin_instance("c2-skew")
    left = BarLeftCompat(inst.tau)
    right = BarRightCompat(inst.tau, reduced=True)
    x = (1,)
    assert left.apply(0, 1, (x, x)) == {(((x, x)), 1): Q.one}
    assert right.apply(0, (0, 0), x) == {((x, (0, 0))): Q.one}


# kC2 acting on k[x] by x -> -x, with explicit structure constants and an
# action table that lists every word up to degree 3
TABLE_HOPF = {
    "name": "table-hopf",
    "field": "Q",
    "budgets": {"hdeg": 2, "gdeg": 3},
    "R": {"family": "polynomial", "variables": ["x"]},
    "S": {"family": "structure_constants",
          "elements": ["e", "g"],
          "table": [["e", "g"], ["g", "e"]]},
    "twist": {
        "kind": "hopf_action",
        "hopf": {"kind": "group_algebra"},
        "action": {
            "e | x": [{"word": "x", "coeff": "1"}],
            "g | x": [{"word": "x", "coeff": "-1"}],
            "e | x^2": [{"word": "x^2", "coeff": "1"}],
            "g | x^2": [{"word": "x^2", "coeff": "1"}],
            "e | x^3": [{"word": "x^3", "coeff": "1"}],
            "g | x^3": [{"word": "x^3", "coeff": "-1"}],
            "e | 1": [{"word": "1", "coeff": "1"}],
            "g | 1": [{"word": "1", "coeff": "1"}],
        },
    },
}


def with_action(desc, action):
    """A copy of ``desc`` whose twist acts by ``action``."""
    out = copy.deepcopy(desc)
    out["twist"]["action"] = action
    return out


def test_hopf_action_tables_via_json():
    # a table-driven Hopf action through the instance parser
    inst = parse_instance(json.dumps(TABLE_HOPF))
    ok, failures = inst.action.check(3)
    assert ok, failures
    assert inst.tau.apply(1, (1,)) == {(((1,), 1)): Q.from_int(-1)}
    maps = inst.bar_maps()
    g = maps.prod_rbar.free_generators(2, 2)[0]
    assert maps.aw_reduced.apply(2, maps.ez_reduced.apply(2, g)) == g


def test_c2_skew_pipeline_small():
    # K (x)_tau rbar(kC2) for C2 on k[x]: pi o iota = 1 through total
    # degree 3 (the Koszul complex terminates at K_1)
    inst = builtin_instance("c2-skew")
    pipe = inst.koszul_pipeline(n_max=3, d_max=3)
    assert pipe.X.C.dim_tilde(2) == 0
    assert check_identity_composition(pipe.pi, pipe.iota, 3, 3).passed


# the right crossing of a Koszul-smash complex is the bar map
# BarRightCompat, whose memo tests/test_twisting.py checks on these instances
@pytest.mark.parametrize("name", ["c2-skew", "c2-koszul-kxy"])
def test_hopf_compat_memo_matches_fresh_apply(name):
    inst = builtin_instance(name)
    R, H = inst.R, inst.S
    K = KoszulComplex(R, 3)
    h_words = H.basis(0)
    koszul = [(n, h, word) for n in range(4) for d in range(4)
              for _, word in K.basis(n, d) for h in h_words]
    compat = KoszulLeftCompat(BarLeftCompat(inst.tau, reduced=True), K)
    assert_memo_matches_fresh(compat, koszul)


def test_koszul_compat_memo_keys_on_degree():
    # the Koszul word (1, 0, 1) is x in K_1 but x^y in K_2; g negates x and
    # fixes x^y, so one map must keep the two degrees apart
    inst = builtin_instance("c2-koszul-kxy")
    K = KoszulComplex(inst.R, 3)
    compat = KoszulLeftCompat(BarLeftCompat(inst.tau, reduced=True), K)
    unit, g = inst.R.unit, 1
    word = (unit, 0, unit)
    assert compat.apply(1, g, word) == {(word, g): Q.from_int(-1)}
    assert compat.apply(2, g, word) == {(word, g): Q.one}
    assert compat.apply(1, g, word) == compat._apply(1, g, word)


def test_generator_images_act_like_the_full_table():
    # the images of x alone fix the action: extended through the coproduct
    # they give every entry of the full table, up to degree 3
    full = parse_instance(TABLE_HOPF)
    gens = parse_instance(with_action(
        TABLE_HOPF, {"g | x": [{"word": "x", "coeff": "-1"}]}))
    pairs = [(h, r) for h in full.S.basis(0) for r in full.R.basis_upto(3)]
    assert len(pairs) == 8
    for h, r in pairs:
        assert gens.action.act(h, r) == full.action.act(h, r), (h, r)


def test_generator_images_table_verifies_at_gdeg_4():
    # a table of generator images only: the twist and the battery evaluate
    # g on x^2, x^3, ... and on 1, which the table never lists
    desc = with_action(TABLE_HOPF, {"g | x": [{"word": "x", "coeff": "-1"}]})
    desc["budgets"] = {"hdeg": 3, "gdeg": 4}
    reports = verify_reports(parse_instance(desc))
    assert reports and all(r.ok for r in reports), \
        [r.name for r in reports if not r.ok]


def test_atom_without_image_is_refused_with_its_pair():
    desc = with_action(TABLE_HOPF, {"g | x": [{"word": "x", "coeff": "-1"}]})
    desc["R"] = {"family": "polynomial", "variables": ["x", "y"]}
    with pytest.raises(ActionNotAdmissible) as exc:
        parse_instance(desc)
    assert exc.value.witness == ("g", "y")


@pytest.mark.parametrize("key", ["coproduct", "counit", "antipode",
                                 "antipode_inv"])
def test_hopf_table_omitting_a_basis_word_is_refused(key):
    hopf = {"kind": "tables",
            "coproduct": {h: [{"h1": h, "h2": h}] for h in ("e", "g")},
            "counit": {"e": "1", "g": "1"},
            "antipode": {h: [{"word": h}] for h in ("e", "g")},
            "antipode_inv": {h: [{"word": h}] for h in ("e", "g")}}
    del hopf[key]["e"]
    desc = copy.deepcopy(TABLE_HOPF)
    desc["twist"]["hopf"] = hopf
    with pytest.raises(InstanceError) as exc:
        parse_instance(desc)
    assert exc.value.location == f"$.twist.hopf.{key}"
    assert str(exc.value).endswith("no entry for e")


# k_{-1}[x, y]: the quantum plane yx = -xy as a rewriting algebra
QUANTUM_PLANE = {"family": "rewriting", "generators": ["x", "y"],
                 "rules": [{"left": "y*x",
                            "value": [{"word": "x*y", "coeff": "-1"}]}]}


def matrix_action(R, M):
    return {"name": "matrix-action", "field": "Q",
            "budgets": {"hdeg": 2, "gdeg": 2}, "R": R,
            "S": {"family": "group", "group": {"kind": "cyclic", "order": 2}},
            "twist": {"kind": "group_action", "matrices": {"g": M}}}


def test_swap_on_quantum_plane_verifies_with_pipeline():
    # a smash product over a noncommutative R: the swap respects yx = -xy
    inst = parse_instance(matrix_action(QUANTUM_PLANE, [[0, 1], [1, 0]]))
    x, y, xy = (0,), (1,), (0, 1)
    assert inst.action.act(1, xy) == {xy: Q.from_int(-1)}
    assert inst.tau.apply(1, x) == {(y, 1): Q.one}
    reports = verify_reports(inst)
    assert all(r.ok for r in reports), [r.name for r in reports if not r.ok]
    assert any(r.name == "pi o iota = 1 (Koszul)" and r.passed
               for r in reports)


def test_images_that_break_the_relations_are_refused():
    # g.x = x + y, g.y = -y squares to 1 on k[x, y], but on k_{-1}[x, y]
    # g.x^2 = x^2 + y^2, so g.(g.x^2) = x^2 + 2y^2 is not x^2
    M = [[1, 0], [1, -1]]
    inst = parse_instance(matrix_action(
        {"family": "polynomial", "variables": ["x", "y"]}, M))
    assert inst.action.check(4) == (True, [])
    with pytest.raises(ActionNotAdmissible) as exc:
        parse_instance(matrix_action(QUANTUM_PLANE, M))
    assert exc.value.witness == ("module law", "g", "g", "x^2")
