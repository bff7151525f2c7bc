import hashlib

import pytest

from twistres import conversion
from twistres.awez import ChainMap
from twistres.checks import check_chain_map, check_identity_composition
from twistres.complexes import (KoszulComplex, TwistedProductComplex,
                                block_matrix)
from twistres.conversion import (BootstrapLift, CompatibleChainMapPair,
                                 check_compatible, conversion_pi_iota,
                                 koszul_inclusion, smash_product_complex,
                                 tensor_chain_maps)
from twistres.errors import (ActionNotAdmissible, NotLiftable,
                             TwistInconsistent, TwistresError)
from twistres.fields import Rationals
from twistres.instances import builtin_instance
from twistres.linalg import accumulate
from twistres.tensors import TensorSubspace
from twistres.twisting import BarLeftCompat, BarRightCompat

Q = Rationals()


def koszul_setup(name="c2-koszul-kxy", field=None, n_max=2, d_max=2):
    inst = builtin_instance(name, field=field)
    pipe = inst.koszul_pipeline(n_max=n_max, d_max=d_max)
    return inst, pipe


def test_koszul_inclusion_is_a_compatible_chain_map():
    inst, pipe = koszul_setup()
    report = check_chain_map(pipe.pair.psi_R, 2, 2)
    assert report.passed, report.witness
    assert pipe.pair.tau_C is pipe.X.tau_C
    assert pipe.pair.tau_Cp is inst.bar_maps().prod_rbar.tau_C
    assert pipe.pair.tau_D is pipe.pair.tau_Dp is pipe.X.tau_D
    ok, witness = check_compatible(pipe.pair, inst.S, inst.R, 2, 2)
    assert ok, witness


def test_identity_maps_are_compatible():
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()
    tau_C = BarLeftCompat(inst.tau, reduced=True)
    tau_D = BarRightCompat(inst.tau, reduced=True)
    pair = CompatibleChainMapPair(ChainMap.identity(maps.rbar_R),
                                  ChainMap.identity(maps.rbar_S),
                                  tau_C, tau_C, tau_D, tau_D)
    ok, witness = check_compatible(pair, inst.S, inst.R, 2, 2)
    assert ok, witness


def corrupted_pair(pipe):
    # the pipeline's pair with tau_K's degree-2 values negated
    class Corrupted:
        def apply(self, n, s_word, word):
            out = pipe.X.tau_C.apply(n, s_word, word)
            if n == 2:
                return {k: -c for k, c in out.items()}
            return out

    pair = pipe.pair
    return CompatibleChainMapPair(pair.psi_R, pair.psi_S, Corrupted(),
                                  pair.tau_Cp, pair.tau_D, pair.tau_Dp)


def test_sign_corrupted_compatibility_fails_with_witness():
    inst, pipe = koszul_setup()
    ok, witness = check_compatible(corrupted_pair(pipe), inst.S, inst.R, 2, 2)
    assert not ok
    assert witness[0] == "left"


def test_conversion_refuses_an_incompatible_pair():
    # the conversion entry gates on both compatibility squares: a corrupted
    # tau_K is refused before iota is built, with check_compatible's witness
    inst, pipe = koszul_setup()
    pair = corrupted_pair(pipe)
    with pytest.raises(TwistInconsistent) as caught:
        conversion_pi_iota(inst.bar_maps(), pipe.X, pair, 2, 2)
    ok, witness = check_compatible(pair, inst.S, inst.R, 2, 2)
    assert caught.value.witness == witness
    assert caught.value.witness[:2] == ("left", 2)


def test_tensor_chain_maps_identity():
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()
    tau_C = BarLeftCompat(inst.tau, reduced=True)
    tau_D = BarRightCompat(inst.tau, reduced=True)
    pair = CompatibleChainMapPair(ChainMap.identity(maps.rbar_R),
                                  ChainMap.identity(maps.rbar_S),
                                  tau_C, tau_C, tau_D, tau_D)
    t = tensor_chain_maps(pair, maps.prod_rbar, maps.prod_rbar)
    for n in range(3):
        for d in range(3):
            for comp, word in maps.prod_rbar.basis(n, d):
                assert t.apply_word(n, comp, word) == \
                    maps.prod_rbar.single(n, comp, word)


def test_conversion_degenerates_to_aw_ez():
    # with identity pi's and iota's the conversion maps are AW and EZ
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()
    tau_C = BarLeftCompat(inst.tau, reduced=True)
    tau_D = BarRightCompat(inst.tau, reduced=True)
    pair = CompatibleChainMapPair(ChainMap.identity(maps.rbar_R),
                                  ChainMap.identity(maps.rbar_S),
                                  tau_C, tau_C, tau_D, tau_D)
    conv = conversion_pi_iota(maps, maps.prod_rbar, pair, 2, 2,
                              projections=pair)
    pi, iota = conv.pi, conv.iota
    for n in range(3):
        for d in range(3):
            for comp, word in maps.rbar_A.basis(n, d):
                assert pi.apply_word(n, comp, word) == \
                    maps.aw_reduced.apply_word(n, comp, word)
            for comp, word in maps.prod_rbar.basis(n, d):
                assert iota.apply_word(n, comp, word) == \
                    maps.ez_reduced.apply_word(n, comp, word)
    # pi o iota = 1 then follows from the AW/EZ identity
    for g in maps.prod_rbar.free_generators(2, 2):
        assert pi.apply(2, iota.apply(2, g)) == g


def test_bootstrap_on_identity_map():
    inst = builtin_instance("c2-skew")
    maps = inst.bar_maps()
    ident = ChainMap.identity(maps.rbar_A)
    lift = BootstrapLift(ident, 2, 2)
    for n in range(3):
        for d in range(3):
            for comp, word in maps.rbar_A.basis(n, d):
                assert lift.chain_map.apply_word(n, comp, word) == \
                    maps.rbar_A.single(n, comp, word)


@pytest.mark.parametrize("field", [None, "F3"])
def test_koszul_smash_pipeline_identity(field):
    inst, pipe = koszul_setup(field=field, n_max=2, d_max=2)
    assert check_identity_composition(pipe.pi, pipe.iota, 2, 2).passed
    assert check_identity_composition(pipe.pi_RH, pipe.iota_tensor, 2, 2).passed
    report = check_chain_map(pipe.pi, 2, 2)
    assert report.passed, report.witness
    report = check_chain_map(pipe.iota, 2, 2)
    assert report.passed, report.witness


def test_pipeline_pi_iota_idempotent():
    # iota o pi squares to itself (it is a projection onto the image)
    inst, pipe = koszul_setup(n_max=2, d_max=2)
    maps = inst.bar_maps()
    for d in range(3):
        for comp, word in maps.rbar_A.basis(2, d):
            once = pipe.iota.apply(2, pipe.pi.apply_word(2, comp, word))
            twice = pipe.iota.apply(2, pipe.pi.apply(2, once))
            assert once == twice


def test_pipeline_preserves_internal_degree():
    inst, pipe = koszul_setup(n_max=2, d_max=3)
    maps = inst.bar_maps()
    for n in range(3):
        for d in range(4):
            for comp, word in maps.rbar_A.basis(n, d):
                img = pipe.pi.apply_word(n, comp, word)
                for (c2, w2), _ in img.data.items():
                    assert pipe.X.term(n).degree(c2, w2) == d


def test_trivial_group_pipeline_degenerates():
    # with G = C1 the pipeline is the Koszul-vs-reduced-bar conversion for R
    import json
    from twistres.instances import parse_instance

    desc = {
        "name": "trivial-group",
        "field": "Q",
        "budgets": {"hdeg": 2, "gdeg": 3},
        "R": {"family": "polynomial", "variables": ["x", "y"]},
        "S": {"family": "group", "group": {"kind": "cyclic", "order": 1}},
        "twist": {"kind": "group_action", "matrices": {}},
    }
    inst = parse_instance(json.dumps(desc))
    pipe = inst.koszul_pipeline(n_max=2, d_max=2)
    assert check_identity_composition(pipe.pi, pipe.iota, 2, 2).passed


def test_inadmissible_action_rejected(monkeypatch):
    # the Koszul-smash complex refuses a middle subspace the group does not
    # preserve: against a swap action, the line spanned by x (x) y alone is
    # not invariant, so a K whose K_2 is that line is refused
    inst = builtin_instance("c2-swap-kxy")
    x, y = inst.R.var_word(0), inst.R.var_word(1)

    class LineK2(KoszulComplex):
        def __init__(self, R, n_max):
            super().__init__(R, n_max)
            self.spaces[2] = TensorSubspace(R, 2, [{(x, y): Q.one}], "K2")

    monkeypatch.setattr(conversion, "KoszulComplex", LineK2)
    with pytest.raises(ActionNotAdmissible) as caught:
        smash_product_complex(inst.bar_maps(), 2)
    assert caught.value.witness == (1, 0)


@pytest.mark.parametrize("name", ["c2-skew", "c2-koszul-kxy", "c2-swap-kxy",
                                  "s3-perm-kxyz"])
def test_koszul_smash_crosses_through_bar_maps(name):
    # X's right crossing is prod_rbar's own map, and its left crossing is
    # the reduced-bar crossing of R restricted along the Koszul inclusion
    # (through K_3 = x^y^z, on which S3 acts by the sign, for s3-perm-kxyz)
    inst = builtin_instance(name)
    maps = inst.bar_maps()
    X = smash_product_complex(maps, 3)
    assert X.tau_D is maps.prod_rbar.tau_D
    pair = CompatibleChainMapPair(
        psi_R=koszul_inclusion(X.C, maps.rbar_R),
        psi_S=ChainMap.identity(maps.rbar_S),
        tau_C=X.tau_C,
        tau_Cp=BarLeftCompat(inst.tau, reduced=True),
        tau_D=X.tau_D,
        tau_Dp=X.tau_D)
    ok, witness = check_compatible(pair, inst.S, inst.R, 3, 3)
    assert ok, witness


def pi_digest(inst, pipe, n_max, d_max):
    """sha256 of pi's values on the generators of rbar(A) at n <= n_max,
    d <= d_max, one line per term in the kernel's sort order (as
    perfbench's lift workload hashes them), and the number of generators."""
    rbar = inst.bar_maps().rbar_A
    h = hashlib.sha256()
    count = 0
    for n in range(n_max + 1):
        for d in range(d_max + 1):
            for g in rbar.free_generators(n, d):
                for (comp, word), c in pipe.pi.apply(n, g).items_sorted():
                    h.update(f"{n}|{count}|{comp!r}|{word!r}|{c}\n".encode())
                h.update(b"end\n")
                count += 1
    return count, h.hexdigest()


# pi's digests on the 432 generators of rbar(A) at n, d <= 3; pin the
# bootstrap lift bit for bit
PI_DIGESTS = {
    None: "a74493729b5717ef58aa9809d68502fe0c5c1f6ecefb363da69205273e2564ef",
    "F3": "79b2952afef7d2fe49c0b9c311e0d56ffcbf9ebae82c51b3982bc1980ec56b99",
    "F5": "c7e22bdf621ee0ee77d38fa5b7fb88caa0ea942b7e317940ec97098d6261be17",
}


@pytest.mark.parametrize("field", sorted(PI_DIGESTS, key=str))
def test_bootstrap_pi_values_pinned(field):
    inst, pipe = koszul_setup(field=field, n_max=3, d_max=3)
    assert pi_digest(inst, pipe, 3, 3) == (432, PI_DIGESTS[field])


def test_bootstrap_pi_on_s3_pinned():
    # the first pin over a non-abelian group: pi's values on the 229
    # generators of rbar(A) at n <= 2, d <= 1 on s3-perm-kxyz over Q
    inst, pipe = koszul_setup("s3-perm-kxyz", n_max=2, d_max=1)
    assert inst.field.name == "Q"
    assert pi_digest(inst, pipe, 2, 1) == (
        229, "c8e45f9d547aade31ef1397f381410795ac7d3c141fdd17bfb31682cd04efa6e")


def test_bootstrap_lift_solves_one_degree_per_system(monkeypatch):
    # X is graded, so every complement system is one internal degree's block
    from twistres import conversion

    inst, pipe = koszul_setup(field="F3", n_max=3, d_max=3)
    calls = []

    def recording(columns, n, degrees):
        calls.append((n, tuple(degrees)))
        return block_matrix(columns, n, degrees)

    monkeypatch.setattr(conversion, "block_matrix", recording)
    lift = BootstrapLift(pipe.iota, 3, 3)
    assert calls and all(len(degrees) == 1 for _, degrees in calls)
    assert len(set(calls)) == len(calls)
    g = inst.bar_maps().rbar_A.free_generators(3, 3)[0]
    assert lift.chain_map.apply(3, g) == pipe.pi.apply(3, g)


def test_pipeline_cache_keyed_on_window():
    inst = builtin_instance("c2-koszul-kxy", field="F3")
    small = inst.koszul_pipeline(n_max=2, d_max=2)
    pipe = inst.koszul_pipeline(n_max=3, d_max=3)
    assert pipe is not small
    assert pipe.X.n_max == 3
    assert inst.koszul_pipeline(n_max=2, d_max=2) is small
    assert check_identity_composition(pipe.pi, pipe.iota, 3, 3).passed
    g = inst.bar_maps().rbar_A.free_generators(3, 3)[0]
    assert pipe.pi.apply(3, g)        # built through degree 3
    with pytest.raises(TwistresError):    # beyond the small pipeline's X
        small.pi.apply(3, g)


def test_bootstrap_lift_names_failing_block():
    # an iota whose degree-1 images leave k (x) Abar (x) k is refused at the
    # first such block
    inst = builtin_instance("c2-skew")
    rbar = inst.bar_maps().rbar_A
    A = rbar.A

    def oracle(out, factor, n, comp, word):
        if n == 1:
            rbar.act_into(out, factor, n, word[1], comp, word, A.unit)
        else:
            accumulate(out, (comp, word), factor)

    with pytest.raises(NotLiftable) as info:
        BootstrapLift(ChainMap(rbar, rbar, oracle, "moved"), 2, 2)
    assert info.value.block == (1, 0)


def test_lift_names_the_block_a_differential_leaves():
    # X's differential raises the internal degree by one, so d_1 of a
    # degree-1 word leaves the block [1] the lift is building: at (1, 1) the
    # image lies outside the window and DColumns refuses it, at (2, 2)
    # block_matrix does, and both name [1]
    inst = builtin_instance("c2-koszul-kxy")
    for window in ((1, 1), (2, 2)):
        pipe = inst.koszul_pipeline(n_max=window[0], d_max=window[1])
        X = pipe.X
        x = X.A.basis(1)[0]

        class Raised(TwistedProductComplex):
            def diff_into(self, out, factor, n, comp, word):
                faces = {}
                super().diff_into(faces, factor, n, comp, word)
                for (comp2, word2), c in faces.items():
                    self.act_into(out, c, n - 1, x, comp2, word2, X.A.unit)

        raised = Raised(X.A, X.C, X.D, X.tau_C, X.tau_D, X.n_max, name="raised")
        iota = ChainMap(raised, pipe.iota.target, pipe.iota.apply_into, "iota")
        with pytest.raises(TwistresError, match=(
                r"d_1 of raised leaves the degree block \[1\] at ")):
            BootstrapLift(iota, *window)
