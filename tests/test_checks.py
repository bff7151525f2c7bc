from collections import Counter

import pytest

from twistres.awez import ChainMap
from twistres.checks import (SignCorruptedBar, check_bimodule_map,
                             check_chain_map, check_differential_bimodule,
                             check_identity_composition,
                             check_twist_axiom_report, check_twist_inverse)
from twistres.complexes import DColumns
from twistres.errors import NotLiftable, TwistresError
from twistres.instances import builtin_instance
from twistres.linalg import accumulate_scaled
from twistres.suite import group_closed_form_reports, pipeline_reports, run_suite


def test_chain_map_check_flags_flipped_sign():
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()

    def corrupted(out, factor, n, comp, word):
        maps.aw_reduced.apply_into(out, -factor if n == 2 else factor,
                                   n, comp, word)

    bad = ChainMap(maps.rbar_A, maps.prod_rbar, corrupted, "corrupted AW")
    report = check_chain_map(bad, 2, 2)
    assert not report.passed
    assert "square fails" in report.witness


def test_bimodule_check_passes_for_unshuffle():
    inst = builtin_instance("c2-skew")
    maps = inst.bar_maps()
    report = check_bimodule_map(maps.twisted_unshuffle, 2, 2, seed=0)
    assert report.passed


def test_in2_bimodule_behaviour_depends_on_twist():
    # the raw inclusion in_2 fails to be a bimodule map for the Ore twist
    # (its twisting creates inner units), but is one for the quantum plane
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()
    report = check_bimodule_map(maps.inclusion_reduced_product, 2, 3,
                                seed=0, exhaustive=True)
    assert not report.passed
    assert report.witness
    inst2 = builtin_instance("quantum-plane")
    maps2 = inst2.bar_maps()
    report2 = check_bimodule_map(maps2.inclusion_reduced_product, 2, 3,
                                 seed=0, exhaustive=True)
    assert report2.passed


def test_identity_composition_checks():
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()
    ident = ChainMap.identity(maps.rbar_A)
    assert check_identity_composition(ident, ident, 2, 2).passed
    assert check_identity_composition(maps.aw_reduced, maps.ez_reduced,
                                      2, 3).passed
    report = check_identity_composition(maps.ez_reduced, maps.aw_reduced, 3, 4)
    assert not report.passed
    # mixed words split already in degree 1, so a witness exists early
    assert "generator" in report.witness


def test_twist_reports():
    inst = builtin_instance("example-5.2")
    assert check_twist_axiom_report(inst.tau, 4).passed
    assert check_twist_inverse(inst.tau, 4).passed
    bad = builtin_instance("corrupted-twist")
    report = check_twist_axiom_report(bad.tau, 4)
    assert not report.passed
    assert "quadruple" in report.witness


def test_corrupted_bar_is_detected():
    inst = builtin_instance("example-5.2")
    bad = SignCorruptedBar(inst.A, n_max=3)
    from twistres.checks import check_d_squared_report, check_exactness_report
    assert not check_d_squared_report(bad, 3, 2).passed
    assert not check_exactness_report(bad, 2, 2, graded=False).passed


def test_reports_are_deterministic():
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()
    r1 = check_bimodule_map(maps.aw_reduced, 1, 2, seed=3)
    r2 = check_bimodule_map(maps.aw_reduced, 1, 2, seed=3)
    assert r1.to_json() == r2.to_json()


def test_report_lines_and_json_round_trip():
    inst = builtin_instance("example-5.2")
    report = check_twist_axiom_report(inst.tau, 2, instance=inst.name)
    assert "PASS" in report.line()
    data = report.to_json()
    assert data["check"].startswith("twist axiom")
    assert data["ok"] is True


def test_suite_green_over_prime_field():
    inst = builtin_instance("c2-skew", field="F3", hdeg=2, gdeg=2)
    reports = run_suite(inst, hdeg=2, gdeg=2)
    assert all(r.ok for r in reports), [r.line() for r in reports if not r.ok]


def test_suite_green_on_example52_and_sensitive_on_corruption():
    inst = builtin_instance("example-5.2", hdeg=2, gdeg=3)
    reports = run_suite(inst, hdeg=2, gdeg=3)
    assert all(r.ok for r in reports)
    negatives = [r for r in reports if r.expect_failure]
    assert negatives and all(not r.passed for r in negatives)
    bad = builtin_instance("corrupted-twist")
    reports = run_suite(bad)
    axiom = [r for r in reports if r.name.startswith("twist axiom")][0]
    assert axiom.expect_failure and not axiom.passed and axiom.ok


def test_suite_propagates_koszul_errors(monkeypatch):
    # only InstanceError (no quadratic presentation) skips the Koszul checks
    inst = builtin_instance("example-5.2", hdeg=1, gdeg=1)

    def broken(n_max=None):
        raise RuntimeError("koszul construction bug")

    monkeypatch.setattr(inst, "koszul_complex", broken)
    with pytest.raises(RuntimeError):
        run_suite(inst, hdeg=1, gdeg=1)


def test_pipeline_reports_propagate_kernel_bugs(monkeypatch):
    inst = builtin_instance("c2-koszul-kxy")

    def broken(n_max=None, d_max=None):
        raise RuntimeError("pipeline construction bug")

    monkeypatch.setattr(inst, "koszul_pipeline", broken)
    with pytest.raises(RuntimeError, match="pipeline construction bug"):
        pipeline_reports(inst)


def test_pipeline_reports_a_failed_lift(monkeypatch):
    inst = builtin_instance("c2-koszul-kxy")
    error = NotLiftable("quotient not free at degree 2", block=(2, 1))

    def refused(n_max=None, d_max=None):
        raise error

    monkeypatch.setattr(inst, "koszul_pipeline", refused)
    [report] = pipeline_reports(inst)
    assert report.name == "koszul pipeline: construction"
    assert not report.passed and not report.ok
    assert report.witness == str(error)


def test_pipeline_checks_run_on_the_window_of_their_pipeline():
    # pi was lifted through (2, 2) only: no check reads it at degree 3
    inst = builtin_instance("c2-koszul-kxy", field="F3")
    reports = pipeline_reports(inst, n_max=2, d_max=2)
    assert [r.budget for r in reports] == [{"hdeg": 2}] + [
        {"hdeg": 2, "gdeg": 2}] * 4
    assert all(r.ok for r in reports)


def test_run_suite_builds_the_pipeline_on_its_window(monkeypatch):
    # the battery's window reaches the pipeline, whose iota square reads
    # the rbar(A) columns the battery's squares laid out: one DColumns of
    # rbar(A) in all
    inst = builtin_instance("c2-skew")
    rbar_A = inst.bar_maps().rbar_A
    built = []
    init = DColumns.__init__

    def recording(self, X, d_max):
        built.append((X, d_max))
        init(self, X, d_max)

    monkeypatch.setattr(DColumns, "__init__", recording)
    reports = run_suite(inst, hdeg=2, gdeg=2)
    assert all(r.ok for r in reports)
    assert list(inst._pipelines) == [(2, 2)]
    start = [r.name for r in reports].index("koszul pipeline: construction")
    assert [r.budget for r in reports[start:]] == [{"hdeg": 2}] + [
        {"hdeg": 2, "gdeg": 2}] * 4
    assert [d for X, d in built if X is rbar_A] == [2]


def test_closed_form_witness_names_first_failing_block(monkeypatch):
    import twistres.awez as awez

    inst = builtin_instance("c2-skew")
    generic = awez.group_closed_aw

    def corrupted(maps, action, n, word, reduced=True):
        out = generic(maps, action, n, word, reduced=reduced)
        return out + out if n in (1, 2) else out

    monkeypatch.setattr(awez, "group_closed_aw", corrupted)
    aw, ez = group_closed_form_reports(inst, n_max=2, d_max=1)
    assert not aw.passed
    assert aw.witness == "AW mismatch at n=1"
    assert ez.passed


# Witnesses of the negative controls, taken from the checks as they were
# before they reused the previous degree's images; reuse must not move them.
AW_FLIP_WITNESS = (
    "square fails at n=2, 1 # 1 (x) 1 # y (x) 1 # y (x) 1 # 1; "
    "d(f(w)) = -1 * [(0, 1)] 1 (x) 1 (x) 1 (x) y (x) y  +  "
    "1 * [(0, 1)] 1 (x) 1 (x) 1 (x) y^2 (x) 1  +  "
    "-1 * [(0, 1)] 1 (x) 1 (x) y (x) y (x) 1; "
    "f(d(w)) = 1 * [(0, 1)] 1 (x) 1 (x) 1 (x) y (x) y  +  "
    "-1 * [(0, 1)] 1 (x) 1 (x) 1 (x) y^2 (x) 1  +  "
    "1 * [(0, 1)] 1 (x) 1 (x) y (x) y (x) 1")
SIGN_BAR_WITNESS = "d(d(w)) != 0 at n=2, w=1 # 1 (x) 1 # y (x) 1 # y (x) 1 # 1"
TWIST_WITNESS = ("quadruple ('1', 'z', 'y', 'x'): "
                 "lhs = 1 * y^2 (x) 1 + 1 * x*y (x) z; "
                 "rhs = 1 * x*y (x) 1 + 1 * x*y (x) z")
SHIFTED_WITNESS = (
    "square fails at n=3, 1 # 1 (x) 1 # 1 (x) 1 # 1 (x) 1 # y (x) 1 # 1; "
    "d(f(w)) = -1 * 1 (x) 1 (x) 1 (x) 1 (x) 1 (x) 1 (x) 1 (x) y  +  "
    "1 * 1 (x) 1 (x) 1 (x) 1 (x) 1 (x) 1 (x) y (x) 1; f(d(w)) = 0")


def test_negative_control_witnesses_are_pinned():
    from twistres.checks import check_d_squared_report

    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()

    def corrupted(out, factor, n, comp, word):
        maps.aw_reduced.apply_into(out, -factor if n == 2 else factor,
                                   n, comp, word)

    bad = ChainMap(maps.rbar_A, maps.prod_rbar, corrupted, "corrupted AW")
    assert check_chain_map(bad, 2, 2).witness == AW_FLIP_WITNESS
    report = check_d_squared_report(SignCorruptedBar(inst.A, n_max=3), 3, 2)
    assert report.witness == SIGN_BAR_WITNESS
    bad_twist = builtin_instance("corrupted-twist").tau
    assert check_twist_axiom_report(bad_twist, 4).witness == TWIST_WITNESS


def test_boundary_shift_fails_through_previous_degree_images():
    # f'(w0) = f(w0) + d(z) on one degree-2 word: d(f'(w0)) = d(f(w0)), so
    # the n = 2 square holds, and only f'(d(w)) at n = 3, built from the
    # degree-2 images, sees the shift
    maps = builtin_instance("example-5.2").bar_maps()
    f = maps.twisted_unshuffle
    Y = f.target
    w0 = f.source.basis(2, 1)[0]
    z = next(key for key in Y.basis(3, 1) if not Y.diff_word(3, *key).is_zero())
    boundary = Y.diff_word(3, *z)

    def shifted(out, factor, n, comp, word):
        f.apply_into(out, factor, n, comp, word)
        if n == 2 and (comp, word) == w0:
            accumulate_scaled(out, boundary.data, factor)

    g = ChainMap(f.source, Y, shifted, "shifted unshuffle")
    assert check_chain_map(g, 2, 1).passed
    report = check_chain_map(g, 3, 1)
    assert not report.passed
    assert report.witness == SHIFTED_WITNESS


def test_lone_square_streams_the_columns_it_reads(monkeypatch):
    # a square whose complexes no store holds keeps none of their columns,
    # enters nothing in the store it is handed, and never lays out the
    # target's top degree; a complex the caller entered keeps the columns
    # of the degrees the square lays out
    from twistres.complexes import DColumns

    f = builtin_instance("example-5.2").bar_maps().twisted_unshuffle
    layout = DColumns._layout
    laid_out = []

    def spy(self, n):
        laid_out.append((self.X, n))
        return layout(self, n)

    monkeypatch.setattr(DColumns, "_layout", spy)
    store = {}
    assert check_chain_map(f, 3, 2, columns=store).passed
    assert store == {}
    assert (f.target, 2) in laid_out and (f.target, 3) not in laid_out
    kept = DColumns(f.target, 2)
    store = {f.target: kept}
    assert check_chain_map(f, 3, 2, columns=store).passed
    assert store == {f.target: kept}
    assert any(kept._columns[n] for n in range(3))


# The witness of a square failing at its top degree only, and the refusal
# of an image word outside the window there, as the check gave them when it
# laid out the target's top degree
DOUBLED_TOP_WITNESS = (
    "square fails at n=3, 1 # 1 (x) 1 # 1 (x) 1 # 1 (x) 1 # y (x) 1 # y; "
    "d(f(w)) = -2 * 1 (x) 1 (x) 1 (x) 1 (x) 1 (x) 1 (x) 1 (x) y^2  +  "
    "2 * 1 (x) 1 (x) 1 (x) 1 (x) 1 (x) 1 (x) y (x) y; "
    "f(d(w)) = -1 * 1 (x) 1 (x) 1 (x) 1 (x) 1 (x) 1 (x) 1 (x) y^2  +  "
    "1 * 1 (x) 1 (x) 1 (x) 1 (x) 1 (x) 1 (x) y (x) y")
RAISED_TOP_REFUSAL = (
    "raised unshuffle at n=2 leaves the degree block [0, 1] at "
    "((), ((0,), (0,), (0,), (0,), (1,), (0,), (0,), (1,)))")


def test_lone_square_failing_at_its_top_degree_keeps_its_witness():
    maps = builtin_instance("example-5.2").bar_maps()
    f = maps.twisted_unshuffle
    Y = f.target
    # the first degree-3 word of internal degree 2 whose image has d != 0
    w0 = next(key for key in f.source.basis(3, 2)
              if not Y.differential(3, f.apply_word(3, *key)).is_zero())

    def doubled(out, factor, n, comp, word):
        twice = n == 3 and (comp, word) == w0
        f.apply_into(out, factor + factor if twice else factor, n, comp, word)

    g = ChainMap(f.source, Y, doubled, "doubled unshuffle")
    assert check_chain_map(g, 2, 2).passed
    report = check_chain_map(g, 3, 2)
    assert not report.passed
    assert report.witness == DOUBLED_TOP_WITNESS


def test_lone_square_refuses_a_top_image_word_outside_the_window():
    # y acting on one top-degree image raises its internal degree to 2, one
    # past the window [0, 1]
    inst = builtin_instance("example-5.2")
    f = inst.bar_maps().twisted_unshuffle
    Y = f.target
    y = inst.A.monomial(inst.A.basis(1)[0])
    w1 = f.source.basis(2, 1)[0]

    def raised(out, factor, n, comp, word):
        image = f.apply_word(n, comp, word)
        if n == 2 and (comp, word) == w1:
            image = image + Y.act(2, y, image, inst.A.one())
        accumulate_scaled(out, image.data, factor)

    g = ChainMap(f.source, Y, raised, "raised unshuffle")
    with pytest.raises(TwistresError) as info:
        check_chain_map(g, 2, 1)
    assert str(info.value) == RAISED_TOP_REFUSAL


def test_bimodule_check_evaluates_each_image_once_per_degree():
    maps = builtin_instance("example-5.2").bar_maps()
    f = maps.twisted_unshuffle
    calls = Counter()

    def counted(out, factor, n, comp, word):
        calls[n, comp, word] += 1
        f.apply_into(out, factor, n, comp, word)

    g = ChainMap(f.source, f.target, counted, "counted unshuffle")
    assert check_bimodule_map(g, 2, 2, seed=0).passed
    assert calls and max(calls.values()) == 1


def test_differential_bimodule_check_acts_on_each_face_once_per_degree(
        monkeypatch):
    X = builtin_instance("example-5.2").bar_maps().rbar_A
    act_into = X.act_into
    top = 0
    face_calls = Counter()

    def counted(out, factor, n, a, comp, word, b):
        # degree n is checked after degree n - 1, and a.w.b on a word of
        # degree n comes before a.v.b on the faces v of d(w): a call below
        # the highest degree seen so far acts on a face
        nonlocal top
        top = max(top, n)
        if n < top:
            face_calls[n, a, comp, word, b] += 1
        act_into(out, factor, n, a, comp, word, b)

    monkeypatch.setattr(X, "act_into", counted)
    assert check_differential_bimodule(X, 2, 2, seed=0).passed
    assert face_calls and max(face_calls.values()) == 1


# Witnesses of two corrupted inputs, taken from the checks as they were
# before they evaluated f(w) and a.v.b once per degree
SCALED_IMAGE_WITNESS = (
    "n=1, w=1 # 1 (x) 1 # 1 (x) 1 # y, a=1 # y, b=1 # 1; "
    "f(a.w.b) = 2 * 1 (x) 1 (x) 1 (x) y (x) 1 (x) y; "
    "a.f(w).b = 1 * 1 (x) 1 (x) 1 (x) y (x) 1 (x) y")
SCALED_ACTION_WITNESS = "n=1, w=1 # 1 (x) 1 # y (x) 1 # 1, a=x # y, b=1 # 1"


def test_bimodule_check_witness_of_a_scaled_image_is_pinned():
    inst = builtin_instance("example-5.2")
    f = inst.bar_maps().twisted_unshuffle
    u, y = inst.A.unit, inst.A.basis(1)[0]
    # 1 # y (x) 1 # 1 (x) 1 # y is a.w.b for a = 1 # y, so the scaled image
    # shows on the side of f(a.w.b)
    scaled_word = ((), (y, u, y))

    def scaled(out, factor, n, comp, word):
        if n == 1 and (comp, word) == scaled_word:
            factor = factor * inst.field.from_int(2)
        f.apply_into(out, factor, n, comp, word)

    g = ChainMap(f.source, f.target, scaled, "scaled unshuffle")
    report = check_bimodule_map(g, 2, 2, seed=0)
    assert not report.passed
    assert report.witness == SCALED_IMAGE_WITNESS


def test_differential_bimodule_witness_of_a_scaled_action_is_pinned(
        monkeypatch):
    inst = builtin_instance("example-5.2")
    X = inst.bar_maps().rbar_A
    u = inst.A.unit
    face = min(X.diff_word(1, *X.basis(1, 1)[0]).data)
    act_into = X.act_into

    def scaled(out, factor, n, a, comp, word, b):
        if n == 0 and (comp, word) == face and a != u:
            factor = factor * inst.field.from_int(2)
        act_into(out, factor, n, a, comp, word, b)

    monkeypatch.setattr(X, "act_into", scaled)
    report = check_differential_bimodule(X, 2, 2, seed=0)
    assert not report.passed
    assert report.witness == SCALED_ACTION_WITNESS


@pytest.mark.parametrize("name, window", [("example-5.2", None), ("c2-skew", 2)])
def test_suite_evaluates_each_differential_once(monkeypatch, name, window):
    # inside the d^2, exactness and chain-map checks of one battery, each
    # (complex, n, comp, word) has its differential (the augmentation at
    # n = 0) evaluated at most once; only outermost calls count, so a
    # product complex's calls into its factors are not counted twice
    from twistres import checks, complexes, suite

    calls = Counter()
    state = {"family": False, "depth": 0}

    def counted(method, with_degree):
        def wrapper(self, *args):
            state["depth"] += 1
            try:
                if state["family"] and state["depth"] == 1:
                    calls[(self, *args) if with_degree else (self, 0, *args)] += 1
                return method(self, *args)
            finally:
                state["depth"] -= 1
        return wrapper

    for module in (complexes, checks):
        for cls in vars(module).values():
            if isinstance(cls, type) and issubclass(cls, complexes.Complex):
                for attr, with_degree in (("diff_word", True), ("aug_word", False)):
                    if attr in vars(cls):
                        monkeypatch.setattr(cls, attr,
                                            counted(vars(cls)[attr], with_degree))

    def in_family(check):
        def wrapper(*args, **kwargs):
            state["family"] = True
            try:
                return check(*args, **kwargs)
            finally:
                state["family"] = False
        return wrapper

    for attr in ("check_d_squared_report", "check_exactness_report",
                 "check_chain_map"):
        monkeypatch.setattr(suite, attr, in_family(getattr(suite, attr)))
    inst = builtin_instance(name, hdeg=window, gdeg=window)
    reports = run_suite(inst, hdeg=window, gdeg=window)
    assert all(r.ok for r in reports)
    assert any(r.name.startswith("koszul pipeline") for r in reports) \
        == (name == "c2-skew")
    assert calls and max(calls.values()) == 1
