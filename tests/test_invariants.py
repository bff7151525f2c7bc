"""Structural identities behind the chain-map theorems, checked directly."""

import ast
import inspect
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest

from twistres.awez import Shuffle
from twistres.checks import (CheckReport, SignCorruptedBar, check_bimodule_map,
                             check_differential_bimodule)
from twistres.complexes import (DColumns, ExactnessReport, check_d_squared,
                                check_truncated_exactness)
from twistres.conversion import check_compatible
from twistres.fields import Rationals
from twistres.instances import Budgets, builtin_instance
from twistres.linalg import (FlatVector, Memo, SparseMatrix, accumulate_scaled,
                             rank)
from twistres.suite import run_suite
from twistres.tensors import FreeElement
from twistres.twisting import BarLeftCompat

Q = Rationals()


@pytest.mark.parametrize("name", ["example-5.2", "c2-skew"])
def test_iterated_twist_commutes_with_inner_multiplication(name):
    # moving s through (..., r_l * r_(l+1), ...) equals moving s through the
    # unmerged word and merging afterwards, for every inner slot
    inst = builtin_instance(name)
    compat = BarLeftCompat(inst.tau, reduced=False)
    R, S = inst.R, inst.S
    s_words = [w for w in S.basis_upto(2) if w != S.unit]
    r_words = R.basis_upto(2)
    for s in s_words:
        for word in [(a, b, c) for a in r_words[:4] for b in r_words[:4]
                     for c in r_words[:4]]:
            for slot in range(2):
                merged_then_twist = {}
                for w, c in R.mul_words(word[slot], word[slot + 1]).items():
                    short = word[:slot] + (w,) + word[slot + 2:]
                    for (out, s2), c2 in compat.apply(0, s, short).items():
                        key = (out, s2)
                        merged_then_twist[key] = merged_then_twist.get(key, 0) + c * c2
                merged_then_twist = {k: v for k, v in merged_then_twist.items() if v}
                twist_then_merge = {}
                for (out, s2), c in compat.apply(1, s, word).items():
                    for w, c2 in R.mul_words(out[slot], out[slot + 1]).items():
                        key = (out[:slot] + (w,) + out[slot + 2:], s2)
                        twist_then_merge[key] = twist_then_merge.get(key, 0) + c * c2
                twist_then_merge = {k: v for k, v in twist_then_merge.items() if v}
                assert merged_then_twist == twist_then_merge


@pytest.mark.parametrize("name", ["example-5.2", "quantum-plane"])
def test_reduced_iterated_twist_is_a_chain_map(name):
    # (d (x) 1) tau_rbar = tau_rbar (1 (x) d) on the reduced bar complex
    inst = builtin_instance(name)
    maps = inst.bar_maps()
    rbar = maps.rbar_R
    compat = BarLeftCompat(inst.tau, reduced=True)
    s_words = [w for w in inst.S.basis_upto(2) if w != inst.S.unit]
    for n in (1, 2):
        for d in range(3):
            for comp, word in rbar.basis(n, d):
                for s in s_words:
                    lhs = {}
                    for (w2, s2), c in compat.apply(n, s, word).items():
                        for ((), w3), c2 in rbar.diff_word(n, (), w2).data.items():
                            key = (w3, s2)
                            lhs[key] = lhs.get(key, 0) + c * c2
                    lhs = {k: v for k, v in lhs.items() if v}
                    rhs = {}
                    for ((), w2), c in rbar.diff_word(n, (), word).data.items():
                        for (w3, s2), c2 in compat.apply(n - 1, s, w2).items():
                            key = (w3, s2)
                            rhs[key] = rhs.get(key, 0) + c * c2
                    rhs = {k: v for k, v in rhs.items() if v}
                    assert lhs == rhs, (name, n, word, s)


def test_reduced_iterated_twist_bijective_per_block():
    # tau_rbar: S (x) rbar_n -> rbar_n (x) S has full rank on each
    # filtration block (the Ore-type twist may drop the S-degree, so blocks
    # collect every total degree up to the bound)
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()
    rbar = maps.rbar_R
    compat = BarLeftCompat(inst.tau, reduced=True)
    S = inst.S
    for n in (1, 2):
        for bound in range(1, 4):
            domain = []
            codomain = []
            for total in range(bound + 1):
                for ds in range(total + 1):
                    for s in S.basis(ds):
                        for comp, word in rbar.basis(n, total - ds):
                            domain.append((s, word))
                            codomain.append((word, s))
            index = {pair: i for i, pair in enumerate(codomain)}
            rows = [dict() for _ in codomain]
            for j, (s, word) in enumerate(domain):
                for pair, c in compat.apply(n, s, word).items():
                    rows[index[pair]][j] = c
            m = SparseMatrix(len(codomain), len(domain), rows)
            assert rank(m) == len(domain)


def test_product_action_is_associative_and_unital():
    # acting by (a*b) equals acting by b then a (left), and by a then b
    # (right); the unit acts trivially
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()
    X = maps.prod_rbar
    A = inst.A
    unit = A.unit
    words = X.basis(2, 1) + X.basis(2, 2)
    coeffs = A.basis_upto(1)
    for comp, word in words:
        elt = X.single(2, comp, word)
        assert X.act_word(2, unit, comp, word, unit) == elt
        for a in coeffs:
            for b in coeffs:
                stepwise = X.act(2, A.monomial(b), elt, A.one())
                stepwise = X.act(2, A.monomial(a), stepwise, A.one())
                combined = X.act(2, A.monomial(a) * A.monomial(b), elt, A.one())
                assert stepwise == combined
                stepwise = X.act(2, A.one(), elt, A.monomial(a))
                stepwise = X.act(2, A.one(), stepwise, A.monomial(b))
                combined = X.act(2, A.one(), elt, A.monomial(a) * A.monomial(b))
                assert stepwise == combined


def test_reduced_maps_vanish_on_complements():
    # pr2 AW_bar = 0 on ker pr1 (bar words with a unit middle slot) and
    # pr1 EZ_bar = 0 on ker pr2 (product words with a unit inner slot)
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()
    A = inst.A
    x, y, u = (1,), (1,), (0,)
    A1 = (u, u)
    words_ker_pr1 = [
        (A1, A1, (x, u), A1),
        (A1, (x, y), A1, A1),
        ((x, u), A1, A1, (u, y)),
    ]
    for word in words_ker_pr1:
        image = maps.aw_unreduced.apply_word(2, (), word)
        assert not any(map(maps.in_reduced_product, image.data)), word
    cases = [((1, 1), (u, u, u, u, y, u)),   # r-inner slot is the unit
             ((1, 1), (u, x, u, u, u, u)),   # s-inner slot is the unit
             ((2, 0), (u, x, u, u, u, u))]   # one of two r-inners is a unit
    for comp, word in cases:
        image = maps.ez_unreduced.apply_word(2, comp, word)
        assert not any(map(maps.in_reduced_bar, image.data)), (comp, word)


def test_iota_tensor_injective_per_block():
    # (iota_R (x) 1): K (x) rbar(H) -> rbar(R) (x) rbar(H) has full rank
    # on every (degree, internal degree) block
    inst = builtin_instance("c2-koszul-kxy")
    pipe = inst.koszul_pipeline(n_max=2, d_max=2)
    maps = inst.bar_maps()
    for n in range(3):
        for d in range(3):
            domain = pipe.X.basis(n, d)
            if not domain:
                continue
            codomain = maps.prod_rbar.basis(n, d)
            index = {key: i for i, key in enumerate(codomain)}
            rows = [dict() for _ in codomain]
            for j, (comp, word) in enumerate(domain):
                for key, c in pipe.iota_tensor.apply_word(n, comp, word).data.items():
                    rows[index[key]][j] = c
            m = SparseMatrix(len(codomain), len(domain), rows)
            assert rank(m) == len(domain)


def test_pipeline_pi_is_a_bimodule_map_sampled():
    inst = builtin_instance("c2-koszul-kxy")
    pipe = inst.koszul_pipeline(n_max=2, d_max=2)
    report = check_bimodule_map(pipe.pi, 1, 1, seed=0, sample=8)
    assert report.passed, report.witness


def reachable_caches(root):
    """(label, cache) for every cache reachable from ``root``: attributes
    whose name ends in ``cache``, closure variables named ``cache``, and
    any other attribute holding a ``linalg.Memo``."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (dict, MappingProxyType)):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif inspect.ismethod(obj):
            stack.extend((obj.__self__, obj.__func__))
        elif inspect.isfunction(obj):
            for name, cell in zip(obj.__code__.co_freevars, obj.__closure__ or ()):
                if name == "cache" or isinstance(cell.cell_contents, Memo):
                    found.append((obj.__qualname__, cell.cell_contents))
                stack.append(cell.cell_contents)
        elif type(obj).__module__.startswith("twistres."):
            attrs = dict(getattr(obj, "__dict__", {}))
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if hasattr(obj, slot):
                        attrs[slot] = getattr(obj, slot)
            for name, value in attrs.items():
                if name.endswith("cache") or isinstance(value, Memo):
                    found.append((f"{type(obj).__name__}.{name}", value))
                stack.append(value)
    return found


KERNEL_CACHES = {
    "TwistingMap._cache", "TwistingMap._inv_cache", "TwistingMap._inv_blocks",
    "TwistedProductAlgebra._mul_cache", "PolynomialAlgebra._mul_cache",
    "GroupAlgebra._mul_cache", "HopfAction._cache", "BarLeftCompat._cache",
    "BarRightCompat._cache", "KoszulLeftCompat._cache",
    "TwistedProductComplex._factor_cache"}


@pytest.fixture(scope="module")
def suite_caches():
    """The caches reachable from c2-skew after its battery has run."""
    inst = builtin_instance("c2-skew", hdeg=2, gdeg=2)
    assert all(r.ok for r in run_suite(inst, hdeg=2, gdeg=2))
    return reachable_caches(inst)


def test_kernel_caches_hand_out_read_only_values(suite_caches):
    caches = suite_caches
    filled = {label for label, cache in caches if cache}
    assert filled >= KERNEL_CACHES - {"TwistingMap._inv_blocks"}
    for label, cache in caches:
        assert isinstance(cache, Memo), label
        for value in cache.values():
            assert isinstance(value, MappingProxyType), label
            with pytest.raises(TypeError):
                value["written"] = 1


def test_checks_leave_no_cache_behind(suite_caches):
    # the checks' memos live for one degree of one check: after the battery
    # the instance reaches the kernel caches and nothing else
    assert {label for label, _ in suite_caches} == KERNEL_CACHES


def test_read_only_values_come_from_linalg_memo():
    # a kernel cache is a linalg.Memo, which wraps every value it stores;
    # a MappingProxyType built anywhere else is a hand-rolled memo
    package = Path(inspect.getfile(FreeElement)).parent
    sites = []
    for path in sorted(package.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if "MappingProxyType(" in line:
                sites.append(f"{path.name}:{lineno}: {line.strip()}")
    assert sites == []


def test_flat_vectors_are_built_in_linalg_only():
    # FlatVector's key, coeff, key, coeff, ... layout is linalg's: elsewhere
    # one is built by FlatVector.of from a dict and an index of its keys
    package = Path(inspect.getfile(FreeElement)).parent
    sites = []
    for path in sorted(package.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if "FlatVector(" in line:
                sites.append(f"{path.name}:{lineno}: {line.strip()}")
    assert sites == []


def test_kept_d_columns_are_read_only():
    # every column a DColumns keeps is a FlatVector, which refuses item
    # assignment, and a second reader of the store reads the very objects
    # the first one kept
    X = builtin_instance("c2-skew").bar_maps().rbar_A
    kept = DColumns(X, 2)
    store = {X: kept}
    assert check_d_squared(X, 2, 2, columns=store) == (True, None)
    first = {n: list(kept._columns[n]) for n in range(3)}
    assert [len(first[n]) for n in range(3)] == [len(kept.basis(n))
                                                  for n in range(3)]
    assert check_truncated_exactness(X, 2, 2, columns=store).exact
    assert store == {X: kept}
    for n, columns in first.items():
        for j, column in enumerate(columns):
            assert kept.column(n, j) is column
            assert type(column) is FlatVector
            with pytest.raises(TypeError):
                column[0] = column[0]
    flat = FlatVector.of({"a": 1, "b": 2}, {"a": 7, "b": 3})
    assert flat == (7, 1, 3, 2) and list(flat.items()) == [(7, 1), (3, 2)]


# also an aliased get, as after "get = store.get"
ADD_AND_DROP = re.compile(r"\bget\(.*,\s*0\)\s*[-+]")


def test_sparse_sums_go_through_linalg():
    # the hand-rolled "store.get(key, 0) + c" add-and-drop-zero step lives in
    # linalg (accumulate, accumulate_scaled) only; anywhere else it is a copy
    # of linalg.accumulate
    package = Path(inspect.getfile(FreeElement)).parent
    copies = []
    for path in sorted(package.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if ADD_AND_DROP.search(line):
                copies.append(f"{path.name}:{lineno}: {line.strip()}")
    assert copies == []


def test_awez_crosses_through_the_twisting_maps():
    # the (un)shuffle crosses S-letters over R-blocks by the iterated twists
    # of twisting.py; a tau call in awez.py is a second crossing loop
    path = Path(inspect.getfile(FreeElement)).parent / "awez.py"
    calls = [f"awez.py:{lineno}: {line.strip()}"
             for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if "tau.apply(" in line or "tau.inverse(" in line]
    assert calls == []


def test_koszul_smash_crosses_through_the_bar_maps():
    # X = K(R) (x)_tau rbar(H) crosses through the bar compatibility maps,
    # restricted to K in complexes.py; a compatibility map in hopf.py, or a
    # hopf import in conversion.py, is a second, Hopf-only crossing layer
    from twistres import hopf
    from twistres.twisting import CompatMap

    defined = [name for name, value in vars(hopf).items()
               if isinstance(value, type) and value.__module__ == hopf.__name__
               and issubclass(value, CompatMap)]
    assert defined == []
    path = Path(inspect.getfile(FreeElement)).parent / "conversion.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""]
            names += [alias.name for alias in node.names]
            if any(name.split(".")[-1] == "hopf" for name in names):
                imported.append(node.lineno)
    assert imported == []


def test_one_conversion_path():
    # iota = EZ o (iota_C (x) iota_D) is built in conversion_pi_iota alone:
    # a second EZ composition in the kernel, or a ChainMap oracle in
    # conversion.py beside the tensor product, the Koszul inclusion and the
    # lift, is a hand-built iota
    package = Path(inspect.getfile(FreeElement)).parent
    sites = [f"{path.name}:{lineno}"
             for path in sorted(package.glob("*.py"))
             for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if "ez_reduced.compose(" in line]
    assert len(sites) == 1 and sites[0].startswith("conversion.py:"), sites
    tree = ast.parse((package / "conversion.py").read_text(encoding="utf-8"))
    functions = [(node.name, node) for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
    functions += [(f"{cls.name}.{node.name}", node) for cls in tree.body
                  if isinstance(cls, ast.ClassDef) for node in cls.body
                  if isinstance(node, ast.FunctionDef)]
    builders = {name for name, func in functions for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "ChainMap"}
    assert builders == {"tensor_chain_maps", "koszul_inclusion",
                        "BootstrapLift.__init__"}


def test_koszul_complex_is_read_back_from_the_reduced_bar():
    # K(R) comes from R alone: its spaces from R's multiplication, with no
    # relation list passed anywhere; d_K and tau_K read reduced-bar images
    # back through KoszulComplex.read_back, the one coordinatize call in
    # complexes.py; and K acts and augments as the reduced bar does
    from twistres.complexes import KoszulComplex

    package = Path(inspect.getfile(FreeElement)).parent
    lines = (package / "complexes.py").read_text(encoding="utf-8").splitlines()
    calls = [lineno for lineno, line in enumerate(lines, 1)
             if "coordinatize(" in line]
    assert len(calls) == 1, calls
    assert "coordinatize(" in inspect.getsource(KoszulComplex.read_back)
    assert {"act_into", "aug_word", "free_generators"}.isdisjoint(
        vars(KoszulComplex))
    params = [f"{path.name}:{node.lineno}"
              for path in sorted(package.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.arg) and node.arg == "relations"]
    assert params == []


SWALLOW = re.compile(r"\bexcept\s*(:|[^:]*\b(Base)?Exception\b)")


def test_no_swallowed_exceptions():
    # handlers name the errors they can act on: no bare "except:" and no
    # "except Exception" in the kernel
    package = Path(inspect.getfile(FreeElement)).parent
    broad = []
    for path in sorted(package.glob("*.py")):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if SWALLOW.search(line):
                broad.append(f"{path.name}:{lineno}: {line.strip()}")
    assert broad == []


def test_each_oracle_has_one_body():
    # every complex writes its differential and action once, as diff_into
    # and act_into, and every chain map its oracle once, in the into form:
    # the one-word forms returning a FreeElement live on Complex and
    # ChainMap alone
    import importlib
    import pkgutil

    import twistres
    from twistres import awez, complexes

    owners = {"diff_word": [], "act_word": [], "apply_word": []}
    for info in pkgutil.iter_modules(twistres.__path__):
        module = importlib.import_module(f"twistres.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("twistres"):
                for attr, found in owners.items():
                    if attr in vars(value) and value not in found:
                        found.append(value)
    assert owners == {"diff_word": [complexes.Complex],
                      "act_word": [complexes.Complex],
                      "apply_word": [awez.ChainMap]}
    assert list(inspect.signature(awez.ChainMap).parameters) == [
        "source", "target", "oracle", "name"]


def bimodule_checked_maps(maps):
    return [maps.twisted_unshuffle, maps.twisted_shuffle, maps.aw_reduced,
            maps.ez_reduced, maps.aw_unreduced, maps.ez_unreduced]


def test_passing_bimodule_checks_build_no_free_element(monkeypatch):
    # both sides of f(a.w.b) = a.f(w).b and d(a.w.b) = a.d(w).b are summed
    # in dicts the oracles add into: a passing check makes no FreeElement
    maps = builtin_instance("quantum-plane", hdeg=1, gdeg=1).bar_maps()
    built = []
    init = FreeElement.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FreeElement, "__init__", counted)
    reports = [check_bimodule_map(f, 1, 1, seed=0)
               for f in bimodule_checked_maps(maps)]
    reports += [check_differential_bimodule(X, 1, 1, seed=0)
                for X in (maps.bar_A, maps.rbar_A, maps.Y, maps.prod_bar,
                          maps.prod_rbar)]
    assert all(r.passed for r in reports), [r.name for r in reports
                                            if not r.passed]
    assert built == []


def test_passing_compatibility_check_builds_no_free_element(monkeypatch):
    # both squares of check_compatible sum psi's values through apply_into
    inst = builtin_instance("c2-koszul-kxy")
    pipe = inst.koszul_pipeline(n_max=2, d_max=2)
    built = []
    init = FreeElement.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FreeElement, "__init__", counted)
    assert check_compatible(pipe.pair, inst.S, inst.R, 2, 2) == (True, None)
    assert built == []


def assert_adds_into(into, value, c, label):
    """``into(out, factor)`` adds factor * value to ``out``: from -c * value
    it leaves nothing, not even a zero, and from other prior terms it gives
    prior + c * value."""
    out = {key: -c * v for key, v in value.items()}
    into(out, c)
    assert out == {}, label
    prior = {key: -c * v for key, v in list(value.items())[::2]}
    prior[("prior", ())] = c
    want = dict(prior)
    accumulate_scaled(want, value, c)
    out = dict(prior)
    into(out, c)
    assert out == want, label


@pytest.mark.parametrize("name, field", [("c2-skew", None),
                                         ("quantum-plane", "F5")])
def test_into_forms_add_into_the_callers_sum(name, field):
    # every diff_into, act_into and chain-map oracle against the one-word
    # value it wraps, on every basis word up to (2, 2)
    inst = builtin_instance(name, field=field, hdeg=2, gdeg=2)
    F, A, maps = inst.field, inst.A, inst.bar_maps()
    c = F.div(F.from_int(2), F.from_int(3))
    complexes = [maps.bar_A, maps.rbar_A, maps.bar_R, maps.bar_S, maps.rbar_R,
                 maps.rbar_S, maps.prod_bar, maps.prod_rbar, maps.Y,
                 SignCorruptedBar(A, n_max=2)]
    chain_maps = bimodule_checked_maps(maps) + [
        maps.front_back_face, maps.shuffle_map, maps.inclusion_reduced_product]
    if inst.action is not None:
        pipe = inst.koszul_pipeline(n_max=2, d_max=2)
        complexes += [pipe.X, pipe.X.C]
        chain_maps += [pipe.iota_tensor, pipe.iota, pipe.pi]
    for n in range(3):
        for d in range(3):
            for X in complexes:
                words = X.A.basis_upto(1)
                pairs = [(X.A.unit, X.A.unit), (words[-1], words[len(words) // 2])]
                for key in X.basis(n, d):
                    if n:
                        assert_adds_into(
                            lambda out, k: X.diff_into(out, k, n, *key),
                            X.diff_word(n, *key).data, c, (X.name, key))
                    for a, b in pairs:
                        assert_adds_into(
                            lambda out, k: X.act_into(out, k, n, a, *key, b),
                            X.act_word(n, a, *key, b).data, c,
                            (X.name, a, key, b))
            for f in chain_maps:
                for key in f.source.basis(n, d):
                    assert_adds_into(
                        lambda out, k: f.apply_into(out, k, n, *key),
                        f.apply_word(n, *key).data, c, (f.name, key))


def test_chain_map_check_reads_differentials_from_columns():
    # both sides of the square read d from the shared d-columns; the check
    # itself evaluates no differential
    from twistres.checks import check_chain_map

    body = inspect.getsource(check_chain_map)
    assert body.startswith("@timed\ndef check_chain_map(")
    assert ".diff_word(" not in body and ".differential(" not in body


def test_public_names_resolve():
    # every name the package exports exists, and a star import takes them all
    import twistres

    assert len(set(twistres.__all__)) == len(twistres.__all__)
    missing = [name for name in twistres.__all__ if not hasattr(twistres, name)]
    assert missing == []
    namespace = {}
    exec("from twistres import *", namespace)
    assert set(twistres.__all__) <= set(namespace)


def run_fresh(code):
    """Run ``code`` in a new interpreter on this checkout's src/; its stdout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


# stdlib modules the kernel does not need at import, each paid in RSS by
# every process: dataclasses brings inspect, ast, dis and tokenize, and
# fractions brings decimal
UNUSED_AT_IMPORT = {"dataclasses", "inspect", "ast", "dis", "tokenize",
                    "fractions", "decimal"}


def test_import_loads_no_dataclasses_or_fractions():
    loaded = run_fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import twistres\n"
        "print(*sorted(set(sys.modules) - before))\n")
    assert "twistres.fields" in loaded
    assert UNUSED_AT_IMPORT.isdisjoint(loaded)


def test_fractions_load_on_the_first_non_integral_q_division():
    # a GF(p) pipeline never makes a Fraction, so it never imports fractions
    out = run_fresh(
        "import sys\n"
        "from twistres.fields import Rationals\n"
        "from twistres.instances import builtin_instance\n"
        "inst = builtin_instance('c2-koszul-kxy', field='F3')\n"
        "inst.koszul_pipeline(n_max=2, d_max=2)\n"
        "print('fractions' in sys.modules)\n"
        "half = Rationals().div(1, 2)\n"
        "print('fractions' in sys.modules)\n"
        "from fractions import Fraction\n"
        "print(half == Fraction(1, 2) and type(half) is Fraction)\n")
    assert out == ["False", "True", "True"]


def test_value_classes_compare_by_value_and_frozen_ones_refuse_assignment():
    assert Budgets() == Budgets(4, 6) and Budgets(2, 3) != Budgets(3, 2)
    assert hash(Budgets(2, 3)) == hash(Budgets(hdeg=2, gdeg=3))
    shuffle = Shuffle((1, 0), 1, 1, -1)
    assert shuffle == Shuffle((1, 0), 1, 1, -1) != Shuffle((0, 1), 1, 1, 1)
    assert hash(shuffle) == hash(Shuffle((1, 0), 1, 1, -1))
    for frozen, attr in ((Budgets(), "hdeg"), (shuffle, "sign")):
        with pytest.raises(AttributeError):
            setattr(frozen, attr, 0)
        with pytest.raises(AttributeError):
            delattr(frozen, attr)
        assert pickle.loads(pickle.dumps(frozen)) == frozen
    with pytest.raises(AttributeError):
        Budgets().extra = 1


def test_reports_keep_their_field_order_and_own_their_containers():
    report = CheckReport("d^2 = 0", "inst", {"hdeg": 2}, False, True, "w")
    assert (report.name, report.instance, report.budget, report.passed,
            report.expect_failure, report.witness, report.details,
            report.seconds) == ("d^2 = 0", "inst", {"hdeg": 2}, False, True,
                                "w", {}, 0.0)
    assert report.ok
    other = CheckReport("d^2 = 0", "inst", {"hdeg": 2}, False, True, "w")
    assert report == other and report.details is not other.details
    other.seconds = 1.0
    assert report != other
    first, second = ExactnessReport("X"), ExactnessReport("X")
    assert first == second and first.entries is not second.entries
