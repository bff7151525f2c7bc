"""The full verification battery over named instances.

Runs, per instance: multiplication laws, the twisting axiom and inversion,
d^2 = 0 and differential-bimodule checks, chain-map squares for the six
conversion maps, bimodule checks, the AW o EZ identity with its negative
control, truncated exactness, and the documented corrupted controls.
A report is returned per check; the suite is green only when every
positive check passes and every negative control fails.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

from .checks import (CheckReport, SignCorruptedBar, check_associativity,
                     check_bimodule_map, check_chain_map, check_d_squared_report,
                     check_differential_bimodule, check_exactness_report,
                     check_identity_composition, check_twist_axiom_report,
                     check_twist_inverse, timed)
from .complexes import DColumns
from .errors import InstanceError, TwistresError


def battery_windows(instance, hdeg=None, gdeg=None):
    """Every window of the battery on ``instance``, capped by its budgets
    or by ``hdeg``/``gdeg`` when given (the pair ``budget``)."""
    n = instance.budgets.hdeg if hdeg is None else hdeg
    d = instance.budgets.gdeg if gdeg is None else gdeg
    w = SimpleNamespace(
        budget=(n, d), product=min(3, d), twist=min(4, d),
        koszul=(min(3, n), min(3, d)), koszul_exact=(min(2, n), min(3, d)),
        square=(min(3, n), min(3, d)), exact=(min(2, n), min(3, d)),
        bimodule=(min(2, n), min(2, d)), in2=(min(2, n), min(3, d)),
        identity=(n, min(4, d)), ez_aw=(min(2, n), 2),
        control=(3, 2), control_exact=(2, 2),
        closed=(min(3, n), min(2, d)), pipeline=(n, min(3, d)))
    # degree-0 parts bigger than 2 (large group algebras) blow block sizes
    # up combinatorially; those instances run on trimmed windows.  The
    # corrupted bar's summand multiplies two non-unit inner letters, so it
    # is zero below internal degree 2 unless A has non-unit degree-0 words;
    # large group parts have them, and run its control at degree 0
    if len(instance.A.basis(0)) > 2:
        w.square = w.exact = (min(2, n), 0)
        w.bimodule = w.in2 = (1, 1)
        w.identity, w.control, w.control_exact = (min(3, n), 1), (3, 0), (2, 0)
        w.closed = w.pipeline = (min(2, n), min(1, d))
    return w


def verify_reports(instance, seed=0, exhaustive=False):
    """What ``twistres verify`` runs on one instance: the battery at the
    instance's budgets, plus the closed group forms when it carries an
    action."""
    reports = run_suite(instance, seed=seed, exhaustive=exhaustive)
    if instance.action is not None:
        reports.extend(group_closed_form_reports(instance))
    return reports


def run_suite(instance, hdeg=None, gdeg=None, seed=0, exhaustive=False):
    """The battery's reports, on the windows of ``battery_windows``."""
    w = battery_windows(instance, hdeg, gdeg)
    name = instance.name
    reports = []

    # multiplication laws of the factors and the twisted product
    reports.append(check_associativity(instance.R, w.product, instance=name))
    reports.append(check_associativity(instance.S, w.product, instance=name))

    # twisting axiom, whose failure ends the battery; the corrupted instance
    # is a documented negative control, checked at degree 4 whatever the
    # budget so its first witness (1, z, y, x) stays inside the window
    expect_twist_failure = name == "corrupted-twist"
    reports.append(check_twist_axiom_report(
        instance.tau, 4 if expect_twist_failure else w.twist,
        instance=name, expect_failure=expect_twist_failure))
    if not reports[-1].passed:
        return reports

    reports.append(check_associativity(instance.A, w.product, instance=name))
    reports.append(check_twist_inverse(instance.tau, w.twist, instance=name))

    maps = instance.bar_maps()
    graded = instance.graded

    # d^2, exactness and the chain-map squares read each complex's
    # d-columns (complexes.DColumns) from one store, entered before their
    # first reader.  Each pair of squares runs after the d^2 and exactness
    # checks of its two complexes, and the columns no later pair reads are
    # dropped, so two complexes hold columns at a time; rbar(A)'s stay for
    # the pipeline's iota square at their window.  The reports keep the order.
    keep_rbar = instance.action is not None and w.pipeline[1] == w.square[1]
    exact_on = (maps.bar_A, maps.rbar_A, maps.Y, maps.prod_rbar)
    pairs = ((maps.twisted_unshuffle, maps.twisted_shuffle),
             (maps.aw_unreduced, maps.ez_unreduced),
             (maps.aw_reduced, maps.ez_reduced))
    d2, exact, squares, columns = {}, {}, {}, {}
    for k, pair in enumerate(pairs):
        for X in (pair[0].source, pair[0].target):
            if X not in d2:
                columns[X] = DColumns(X, w.square[1])
                d2[X] = check_d_squared_report(X, *w.square,
                                               instance=name, columns=columns)
                if X in exact_on:
                    exact[X] = check_exactness_report(
                        X, *w.exact, graded, instance=name, columns=columns)
        for f in pair:
            squares[f] = check_chain_map(f, *w.square, instance=name,
                                         columns=columns)
        later = {X for f, _ in pairs[k + 1:] for X in (f.source, f.target)}
        columns = {X: cols for X, cols in columns.items()
                   if X in later or (keep_rbar and X is maps.rbar_A)}
    reports.extend(d2[X] for X in (maps.bar_A, maps.rbar_A, maps.Y,
                                   maps.prod_bar, maps.prod_rbar))
    reports.extend(exact[X] for X in exact_on)
    try:
        K = instance.koszul_complex()
    except InstanceError:
        K = None      # R has no quadratic presentation
    if K is not None:
        # d^2 and exactness read K's columns, at one window
        columns[K] = DColumns(K, w.koszul[1])
        reports.append(check_d_squared_report(K, *w.koszul, instance=name,
                                              columns=columns))
        reports.append(check_exactness_report(K, *w.koszul_exact, True,
                                              instance=name, columns=columns))
        del columns[K]

    reports.append(check_differential_bimodule(maps.rbar_A, *w.square,
                                               instance=name, seed=seed))
    reports.append(check_differential_bimodule(maps.prod_rbar, *w.square,
                                               instance=name, seed=seed))

    reports.extend(squares.values())

    for f in (maps.twisted_unshuffle, maps.twisted_shuffle, maps.aw_reduced,
              maps.ez_reduced):
        reports.append(check_bimodule_map(f, *w.bimodule,
                                          instance=name, seed=seed,
                                          exhaustive=exhaustive))
    # in_2 is a bimodule map exactly when the twist creates no units on
    # the pairs its check meets: coefficients of degree <= 2 against words
    # of degree <= its internal window
    reports.append(check_bimodule_map(
        maps.inclusion_reduced_product, *w.in2,
        instance=name, seed=seed, exhaustive=exhaustive,
        expect_failure=instance.tau.creates_units(w.in2[1] + 2)))

    reports.append(check_identity_composition(
        maps.aw_reduced, maps.ez_reduced, *w.identity, instance=name,
        name="AW o EZ = 1"))
    # EZ o AW = 1 holds below internal degree 2 on example-5.2, so the
    # control runs at degree 2 whatever the budget
    reports.append(check_identity_composition(
        maps.ez_reduced, maps.aw_reduced, *w.ez_aw,
        instance=name, name="EZ o AW = 1 (negative control)",
        expect_failure=True))

    if name == "example-5.2" and w.budget[0] >= 3:
        reports.extend(example_52_value_reports(instance))

    # documented corrupted differential: d^2 and exactness must both flag
    # it.  The control runs at its own fixed homological window, whatever
    # the budget
    corrupted = SignCorruptedBar(instance.A, n_max=3)
    columns[corrupted] = DColumns(corrupted, w.control[1])
    reports.append(check_d_squared_report(corrupted, *w.control,
                                          instance=name, expect_failure=True,
                                          columns=columns))
    reports.append(check_exactness_report(corrupted, *w.control_exact, graded,
                                          instance=name, expect_failure=True,
                                          columns=columns))
    del columns[corrupted]

    if instance.action is not None:
        reports.extend(pipeline_reports(instance, *w.pipeline,
                                        columns=columns))
    return reports


def example_52_value_reports(instance):
    """Reference values of the enveloping-algebra instance: a maps to b
    under AW, b to c under EZ, and c back to b."""
    F = instance.field
    maps = instance.bar_maps()
    u, x, y, y2 = (0,), (1,), (1,), (2,)
    A1 = (u, u)
    a = maps.rbar_A.single(3, (), (A1, (u, y2), (x, u), (x, u), A1))
    b = maps.prod_rbar.term(3).zero()
    b.add_term((2, 1), (u, x, x, u, u, y2, u), F.one)
    b.add_term((2, 1), (u, x, x, u, u, y, u), F.from_int(4))
    c = maps.rbar_A.term(3).zero()
    c.add_term((), (A1, (x, u), (x, u), (u, y2), A1), F.one)
    c.add_term((), (A1, (x, u), (x, u), (u, y), A1), F.from_int(4))
    c.add_term((), (A1, (u, y2), (x, u), (x, u), A1), F.one)
    c.add_term((), (A1, (x, u), (u, y2), (x, u), A1), F.from_int(-1))
    c.add_term((), (A1, (x, u), (u, y), (x, u), A1), F.from_int(-2))
    cases = [
        ("AW(a)=b", maps.aw_reduced.apply(3, a) == b),
        ("EZ(b)=c", maps.ez_reduced.apply(3, b) == c),
        ("AW(c)=b", maps.aw_reduced.apply(3, c) == b),
        ("EZ(AW(a)) != a (negative control)",
         maps.ez_reduced.apply(3, maps.aw_reduced.apply(3, a)) != a),
    ]
    return [CheckReport(label, instance.name, {"hdeg": 3}, passed)
            for label, passed in cases]


def pipeline_reports(instance, n_max=None, d_max=None, columns=None):
    """Koszul-smash pipeline checks for instances carrying a Hopf action.

    Every check runs on the window the pipeline was built for,
    ``Instance.koszul_pipeline(n_max, d_max)``.  ``columns`` (a store of
    d-columns, see ``complexes.d_columns``) may hold rbar(A)'s from the
    caller's chain-map squares, which iota's square reads; X's, which d^2
    and iota's square read, are entered here and dropped after them.
    """
    name = instance.name
    label = "koszul pipeline: construction"
    t0 = time.perf_counter()
    try:
        pipe = instance.koszul_pipeline(n_max=n_max, d_max=d_max)
        build = CheckReport(label, name, {"hdeg": pipe.window[0]}, True)
    except TwistresError as exc:
        pipe = None
        build = CheckReport(label, name, {}, False, witness=str(exc))
    build.seconds = time.perf_counter() - t0
    reports = [build]
    if pipe is None:
        return reports
    h, d = pipe.window
    columns = {} if columns is None else columns
    columns[pipe.X] = DColumns(pipe.X, d)
    reports.append(check_d_squared_report(pipe.X, h, d, instance=name,
                                          columns=columns))
    reports.append(check_chain_map(pipe.iota, h, d, instance=name,
                                   columns=columns))
    del columns[pipe.X]
    reports.append(check_identity_composition(
        pipe.pi, pipe.iota, h, d, instance=name, name="pi o iota = 1 (Koszul)"))
    reports.append(check_identity_composition(
        pipe.pi_RH, pipe.iota_tensor, min(2, h), min(2, d), instance=name,
        name="pi_RH o (iota_R (x) 1) = 1"))
    return reports


def group_closed_form_reports(instance, n_max=None, d_max=None):
    """Generic AW/EZ versus the closed group-action formulas."""
    from .awez import group_closed_aw, group_closed_ez

    name = instance.name
    if instance.action is None:
        raise ValueError(f"instance {name} carries no group action")
    maps = instance.bar_maps()
    action = instance.action
    window = battery_windows(instance).closed
    n_max = window[0] if n_max is None else n_max
    d_max = window[1] if d_max is None else d_max

    def first_mismatch(X, generic, closed):
        for n in range(n_max + 1):
            for d in range(d_max + 1):
                for comp, word in X.basis(n, d):
                    if closed(n, comp, word) != generic.apply_word(n, comp, word):
                        return n, comp
        return None

    @timed
    def compare(label, X, generic, closed, where):
        miss = first_mismatch(X, generic, closed)
        return CheckReport(f"closed group {label} = generic {label}", name,
                           {"hdeg": n_max, "gdeg": d_max}, miss is None,
                           witness="" if miss is None else
                           f"{label} mismatch at {where(*miss)}")

    return [
        compare("AW", maps.rbar_A, maps.aw_reduced,
                lambda n, comp, word: group_closed_aw(maps, action, n, word,
                                                      reduced=True),
                lambda n, comp: f"n={n}"),
        compare("EZ", maps.prod_rbar, maps.ez_reduced,
                lambda n, comp, word: group_closed_ez(maps, action, n, comp,
                                                      word, reduced=True),
                lambda n, comp: f"n={n}, comp={comp}"),
    ]
