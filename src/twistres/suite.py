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

from .checks import (CheckReport, SignCorruptedBar, check_associativity,
                     check_bimodule_map, check_chain_map, check_d_squared_report,
                     check_differential_bimodule, check_exactness_report,
                     check_identity_composition, check_twist_axiom_report,
                     check_twist_inverse, timed)
from .complexes import DColumns
from .errors import InstanceError, TwistresError


def _cap(budgets, hdeg, gdeg):
    n_max = budgets.hdeg if hdeg is None else hdeg
    d_max = budgets.gdeg if gdeg is None else gdeg
    return n_max, d_max


def verify_reports(instance, seed=0, exhaustive=False):
    """What ``twistres verify`` runs on one instance: the battery at the
    instance's budgets, plus the closed group forms when it carries an
    action."""
    reports = run_suite(instance, seed=seed, exhaustive=exhaustive)
    if instance.action is not None:
        reports.extend(group_closed_form_reports(instance))
    return reports


def run_suite(instance, hdeg=None, gdeg=None, seed=0, exhaustive=False):
    """Execute the full battery; returns a list of CheckReport."""
    n_max, d_max = _cap(instance.budgets, hdeg, gdeg)
    name = instance.name
    reports = []

    # multiplication laws of the factors and the twisted product
    assoc_deg = min(d_max, 3)
    reports.append(check_associativity(instance.R, assoc_deg, instance=name))
    reports.append(check_associativity(instance.S, assoc_deg, instance=name))

    # twisting axiom; the corrupted instance is a documented negative control,
    # checked at degree 4 whatever the budget so its first witness, the
    # quadruple (1, z, y, x), stays inside the window
    expect_twist_failure = name == "corrupted-twist"
    reports.append(check_twist_axiom_report(
        instance.tau, 4 if expect_twist_failure else min(d_max, 4),
        instance=name, expect_failure=expect_twist_failure))
    if expect_twist_failure:
        return reports

    reports.append(check_associativity(instance.A, assoc_deg, instance=name))
    reports.append(check_twist_inverse(instance.tau, min(d_max, 4), instance=name))

    maps = instance.bar_maps()
    graded = instance.graded
    # degree-0 parts bigger than 2 (large group algebras) blow block sizes
    # up combinatorially; those instances run on trimmed windows
    small = len(instance.A.basis(0)) <= 2
    exact_h = min(2, n_max)
    exact_d = min(3, d_max) if small else 0
    square_h = min(3, n_max) if small else min(2, n_max)
    square_d = min(3, d_max) if small else 0
    bimod_h, bimod_d = (min(2, n_max), min(2, d_max)) if small else (1, 1)
    ident_h, ident_d = (n_max, min(d_max, 4)) if small else (min(3, n_max), 1)

    # d^2, exactness and the chain-map squares read each complex's
    # d-columns (complexes.DColumns) from one store, entered before their
    # first reader.  Each pair of squares runs after the d^2 and exactness
    # checks of its two complexes, and the columns no later pair reads are
    # dropped, so two complexes hold columns at a time; rbar(A)'s stay for
    # the pipeline's iota square.  The reports keep the battery's order.
    pipeline = instance.action is not None and instance.run_pipeline
    exact_on = (maps.bar_A, maps.rbar_A, maps.Y, maps.prod_rbar)
    pairs = ((maps.twisted_unshuffle, maps.twisted_shuffle),
             (maps.aw_unreduced, maps.ez_unreduced),
             (maps.aw_reduced, maps.ez_reduced))
    d2, exact, squares, columns = {}, {}, {}, {}
    for k, pair in enumerate(pairs):
        for X in (pair[0].source, pair[0].target):
            if X not in d2:
                columns[X] = DColumns(X, square_d)
                d2[X] = check_d_squared_report(X, square_h, square_d,
                                               instance=name, columns=columns)
                if X in exact_on:
                    exact[X] = check_exactness_report(
                        X, exact_h, exact_d, graded, instance=name,
                        columns=columns)
        for f in pair:
            squares[f] = check_chain_map(f, square_h, square_d, instance=name,
                                         columns=columns)
        later = {X for f, _ in pairs[k + 1:] for X in (f.source, f.target)}
        columns = {X: cols for X, cols in columns.items()
                   if X in later or (pipeline and X is maps.rbar_A)}
    reports.extend(d2[X] for X in (maps.bar_A, maps.rbar_A, maps.Y,
                                   maps.prod_bar, maps.prod_rbar))
    reports.extend(exact[X] for X in exact_on)
    try:
        K = instance.koszul_complex()
    except InstanceError:
        K = None      # R has no quadratic presentation
    if K is not None:
        # d^2 and exactness read K's columns, at one window
        columns[K] = DColumns(K, min(3, d_max))
        reports.append(check_d_squared_report(K, min(3, n_max), min(3, d_max),
                                              instance=name, columns=columns))
        reports.append(check_exactness_report(K, exact_h, min(3, d_max), True,
                                              instance=name, columns=columns))
        del columns[K]

    reports.append(check_differential_bimodule(maps.rbar_A, square_h, square_d,
                                               instance=name, seed=seed))
    reports.append(check_differential_bimodule(maps.prod_rbar, square_h, square_d,
                                               instance=name, seed=seed))

    reports.extend(squares.values())

    for f in (maps.twisted_unshuffle, maps.twisted_shuffle, maps.aw_reduced,
              maps.ez_reduced):
        reports.append(check_bimodule_map(f, bimod_h, bimod_d,
                                          instance=name, seed=seed,
                                          exhaustive=exhaustive))
    # in_2 is a bimodule map exactly when the twist creates no units on
    # the pairs its check meets: coefficients of degree <= 2 against words
    # of degree <= in2_d
    in2_d = min(3, d_max) if small else 1
    reports.append(check_bimodule_map(
        maps.inclusion_reduced_product, bimod_h, in2_d,
        instance=name, seed=seed, exhaustive=exhaustive,
        expect_failure=instance.tau.creates_units(in2_d + 2)))

    reports.append(check_identity_composition(
        maps.aw_reduced, maps.ez_reduced, ident_h, ident_d, instance=name,
        name="AW o EZ = 1"))
    # EZ o AW = 1 holds below internal degree 2 on example-5.2, so the
    # control runs at degree 2 whatever the budget
    reports.append(check_identity_composition(
        maps.ez_reduced, maps.aw_reduced, min(2, n_max), 2,
        instance=name, name="EZ o AW = 1 (negative control)",
        expect_failure=True))

    if name == "example-5.2" and n_max >= 3:
        reports.extend(example_52_value_reports(instance))

    # documented corrupted differential: d^2 and exactness must both flag
    # it.  The control runs at its own fixed window, whatever the budget.
    # Its corrupted summand multiplies two non-unit inner letters, so it is
    # zero below internal degree 2 unless A has non-unit degree-0 words;
    # large group parts have them, and run the control at degree 0
    corrupted = SignCorruptedBar(instance.A, n_max=3)
    control_d = 2 if small else 0
    columns[corrupted] = DColumns(corrupted, control_d)
    reports.append(check_d_squared_report(corrupted, 3, control_d,
                                          instance=name, expect_failure=True,
                                          columns=columns))
    reports.append(check_exactness_report(corrupted, 2, control_d, graded,
                                          instance=name, expect_failure=True,
                                          columns=columns))
    del columns[corrupted]

    if pipeline:
        reports.extend(pipeline_reports(instance, n_max, min(d_max, 3),
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

    Every check runs on the window the pipeline was built for.
    ``columns`` (a store of d-columns, see ``complexes.d_columns``) may hold
    rbar(A)'s from the caller's chain-map squares, which iota's square reads;
    X's, which d^2 and iota's square read, are entered here and dropped
    after them.
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
    small = len(instance.A.basis(0)) <= 2
    if n_max is None:
        n_max = min(3, instance.budgets.hdeg) if small else min(2, instance.budgets.hdeg)
    if d_max is None:
        d_max = min(2, instance.budgets.gdeg) if small else min(1, instance.budgets.gdeg)

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
