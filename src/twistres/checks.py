"""Machine checks for every identity the kernel constructs.

Each check evaluates both sides of an identity exactly on basis words
within a budget and reports the first mismatch with a concrete witness.
Each side is summed in one dict: the oracles add into it
(``ChainMap.apply_into``, ``Complex.diff_into``/``act_into``).
Negative controls (documented corruptions) are expected to fail; the suite
passes only when they do, so its own sensitivity is tested.
"""

from __future__ import annotations

import functools
import random
import time

from . import complexes
from .complexes import BarComplex, check_d_squared
from .linalg import (Memo, accumulate, accumulate_scaled, linear_extension,
                     summed)
from .tensors import FreeElement


class CheckReport:
    """Outcome of one machine check over one instance."""

    __slots__ = ("name", "instance", "budget", "passed", "expect_failure",
                 "witness", "details", "seconds")

    def __init__(self, name: str, instance: str, budget: dict, passed: bool,
                 expect_failure: bool = False, witness: str = "",
                 details: dict | None = None, seconds: float = 0.0):
        self.name, self.instance, self.budget = name, instance, budget
        self.passed, self.expect_failure = passed, expect_failure
        self.witness, self.seconds = witness, seconds
        self.details = {} if details is None else details

    def __eq__(self, other):
        if other.__class__ is not CheckReport:
            return NotImplemented
        return all(getattr(self, a) == getattr(other, a) for a in self.__slots__)

    @property
    def ok(self):
        return self.passed != self.expect_failure

    def verdict(self):
        base = "PASS" if self.passed else "FAIL"
        if self.expect_failure:
            return f"{base} (expected FAIL)" if not self.passed else "FAIL (unexpected PASS)"
        return base

    def to_json(self):
        # wall time stays out so identical invocations are byte-identical
        out = {
            "check": self.name,
            "instance": self.instance,
            "budget": self.budget,
            "passed": self.passed,
            "ok": self.ok,
        }
        if self.expect_failure:
            out["expect_failure"] = True
        if self.witness:
            out["witness"] = self.witness
        if self.details:
            out["details"] = self.details
        return out

    def line(self):
        status = "ok " if self.ok else "BAD"
        extra = f"  [{self.witness}]" if (self.witness and not self.ok) else ""
        return f"[{status}] {self.instance :<22} {self.name :<40} {self.verdict()}{extra}"


def timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        report = fn(*args, **kwargs)
        report.seconds = time.perf_counter() - t0
        return report
    return wrapper


@timed
def check_chain_map(f, n_max, d_max, instance="", expect_failure=False,
                    columns=None):
    """d_target o f = f o d_source on basis words; augmentation at degree 0.

    Checked in index space, column by column, on the d-columns of source
    and target over degrees 0..d_max (``complexes.d_columns``; ``columns``
    is a store of them shared with other checks): D^T_n F_n = F_(n-1) D^S_n,
    where F_n holds f's images of the degree-n words over the target's
    words and F_(-1) is the identity of A.  Degree n reads the columns of
    degree n, keyed by the words of degree n - 1, and releases them; the
    square never lays out the target's top degree, so an image word there
    is refused by its degree.  Words come back only for the witness of a
    failing square.
    """
    budget = {"hdeg": n_max, "gdeg": d_max}
    source, release_source = complexes.d_columns(columns, f.source, d_max)
    target, release_target = (source, release_source) if f.target is f.source \
        else complexes.d_columns(columns, f.target, d_max)
    top = min(n_max, f.source.n_max, f.target.n_max)
    one = f.source.A.field.one
    previous = [target.positions(-1, {a: one}, "the identity of A")
                for a in source.basis(-1)]
    for n in range(top + 1):
        current = []      # F_n, kept below top
        label = f"{f.name} at n={n}"
        for key in source.words(n):
            image = summed(f.apply_into, one, n, *key)
            if n < top:
                current.append(target.positions(n, image, label))
            lhs = linear_extension(
                lambda word: target.word_column(n, word, label), image)
            rhs = linear_extension(previous.__getitem__,
                                   source.word_column(n, key, label))
            if lhs != rhs:
                if n == 0:
                    wit = (f"augmentation square fails at "
                           f"{f.source.term(0).format(*key)}")
                else:
                    wit = (f"square fails at n={n}, "
                           f"{f.source.term(n).format(*key)}; "
                           f"d(f(w)) = {target.element(n - 1, lhs)}; "
                           f"f(d(w)) = {target.element(n - 1, rhs)}")
                return CheckReport(f"chain map: {f.name}", instance, budget,
                                   False, expect_failure, wit)
        release_source(n)
        release_target(n)
        previous = current
    return CheckReport(f"chain map: {f.name}", instance, budget, True,
                       expect_failure)


def sampled_pairs(A, seed, sample, exhaustive=False):
    """Coefficient pairs (a, b) over the algebra basis up to degree 2; a
    fixed seed picks ``sample`` of them unless ``exhaustive`` is set."""
    coeffs = A.basis_upto(min(2, A.max_degree))
    pairs = [(a, b) for a in coeffs for b in coeffs]
    if not exhaustive and len(pairs) > sample:
        pairs = random.Random(seed).sample(pairs, sample)
    return pairs


@timed
def check_bimodule_map(f, n_max, d_max, instance="", seed=0, sample=16,
                       exhaustive=False, expect_failure=False):
    """f(a.w.b) = a.f(w).b for sampled coefficient pairs and all basis words.

    f is evaluated once per word of each degree; the memo lives for that
    degree only.  a.f(w).b adds a.v.b for each term v of f(w) into one sum.
    """
    A, target = f.source.A, f.target
    one = A.field.one
    budget = {"hdeg": n_max, "gdeg": d_max, "coeff_deg": 2, "seed": seed}
    pairs = sampled_pairs(A, seed, sample, exhaustive)
    for n in range(min(n_max, f.source.n_max, target.n_max) + 1):
        images = Memo(lambda key: summed(f.apply_into, one, n, *key))
        for d in range(d_max + 1):
            for comp, word in f.source.basis(n, d):
                img = images[(comp, word)]
                for a, b in pairs:
                    moved = summed(f.source.act_into, one, n, a, comp, word, b)
                    lhs = linear_extension(images.__getitem__, moved)
                    rhs = {}
                    for (comp2, word2), c in img.items():
                        target.act_into(rhs, c, n, a, comp2, word2, b)
                    if lhs != rhs:
                        wit = (f"n={n}, w={f.source.term(n).format(comp, word)}, "
                               f"a={A.format_word(a)}, b={A.format_word(b)}; "
                               f"f(a.w.b) = {FreeElement(target.term(n), lhs)}; "
                               f"a.f(w).b = {FreeElement(target.term(n), rhs)}")
                        return CheckReport(f"bimodule map: {f.name}", instance,
                                           budget, False, expect_failure, wit)
    return CheckReport(f"bimodule map: {f.name}", instance, budget, True,
                       expect_failure)


@timed
def check_differential_bimodule(X, n_max, d_max, instance="", seed=0, sample=10):
    """d(a.w.b) = a.d(w).b on sampled coefficients and all basis words.

    a.v.b is evaluated once per face v of each degree and pair; the memo
    lives for that degree only.  d(a.w.b) adds d(u) for each term u of
    a.w.b into one sum.
    """
    A = X.A
    one = A.field.one
    pairs = sampled_pairs(A, seed, sample)
    report = CheckReport(f"differential is bimodule map: {X.name}", instance,
                         {"hdeg": n_max, "gdeg": d_max, "seed": seed}, True)
    for n in range(1, min(n_max, X.n_max) + 1):
        acted = Memo(lambda key: summed(X.act_into, one, n - 1, key[0],
                                        *key[1], key[2]))
        for d in range(d_max + 1):
            for comp, word in X.basis(n, d):
                dw = summed(X.diff_into, one, n, comp, word)
                for a, b in pairs:
                    lhs = {}
                    for (comp2, word2), c in summed(X.act_into, one, n, a,
                                                    comp, word, b).items():
                        X.diff_into(lhs, c, n, comp2, word2)
                    rhs = linear_extension(lambda key: acted[(a, key, b)], dw)
                    if lhs != rhs:
                        report.passed = False
                        report.witness = (
                            f"n={n}, w={X.term(n).format(comp, word)}, "
                            f"a={A.format_word(a)}, b={A.format_word(b)}")
                        return report
    return report


@timed
def check_identity_composition(f, g, n_max, d_max, instance="",
                               expect_failure=False, name=None):
    """f o g = identity on every free generator within budget."""
    budget = {"hdeg": n_max, "gdeg": d_max}
    label = name or f"{f.name} o {g.name} = 1"
    for n in range(n_max + 1):
        for d in range(d_max + 1):
            for gen in g.source.free_generators(n, d):
                back = f.apply(n, g.apply(n, gen))
                if back != gen:
                    wit = f"n={n}, generator {gen}; came back as {back}"
                    return CheckReport(label, instance, budget, False,
                                       expect_failure, wit)
    return CheckReport(label, instance, budget, True, expect_failure)


@timed
def check_twist_axiom_report(tau, d_max, instance="", expect_failure=False):
    """Hexagon identity on all basis quadruples within the degree budget."""
    ok, witness, count = tau.check_axiom(d_max)
    wit = ""
    if witness is not None:
        wit = (f"quadruple {witness['quadruple']}: lhs = {witness['lhs']}; "
               f"rhs = {witness['rhs']}")
    return CheckReport(f"twist axiom: {tau.name}", instance,
                       {"gdeg": d_max}, ok, expect_failure, wit,
                       details={"quadruples": count})


@timed
def check_twist_inverse(tau, d_max, instance="", expect_failure=False):
    """tau^(-1) o tau = 1 and tau o tau^(-1) = 1 on basis pairs in budget."""
    S, R = tau.S, tau.R
    budget = {"gdeg": d_max}
    for s in S.basis_upto(min(d_max, S.max_degree)):
        for r in R.basis_upto(min(d_max, R.max_degree)):
            if S.degree(s) + R.degree(r) > d_max:
                continue
            round_trip = linear_extension(lambda pair: tau.inverse(*pair),
                                          tau.apply(s, r))
            if round_trip != {(s, r): tau.R.field.one}:
                wit = f"tau^-1(tau({S.format_word(s)}, {R.format_word(r)})) != id"
                return CheckReport(f"twist inverse: {tau.name}", instance,
                                   budget, False, expect_failure, wit)
            round_trip = linear_extension(lambda pair: tau.apply(*pair),
                                          tau.inverse(r, s))
            if round_trip != {(r, s): tau.R.field.one}:
                wit = f"tau(tau^-1({R.format_word(r)}, {S.format_word(s)})) != id"
                return CheckReport(f"twist inverse: {tau.name}", instance,
                                   budget, False, expect_failure, wit)
    return CheckReport(f"twist inverse: {tau.name}", instance, budget, True,
                       expect_failure)


@timed
def check_d_squared_report(X, n_max, d_max, instance="", expect_failure=False,
                           columns=None):
    ok, witness = check_d_squared(X, min(n_max, X.n_max), d_max, columns)
    wit = ""
    if witness is not None:
        n, comp, word, left = witness
        wit = f"d(d(w)) != 0 at n={n}, w={X.term(n).format(comp, word)}"
    return CheckReport(f"d^2 = 0: {X.name}", instance,
                       {"hdeg": n_max, "gdeg": d_max}, ok, expect_failure, wit)


@timed
def check_exactness_report(X, n_max, d_max, graded, instance="",
                           expect_failure=False, columns=None):
    # looked up on the module at each call, so a wrapper installed on
    # complexes.check_truncated_exactness sees every strand
    report = complexes.check_truncated_exactness(X, min(n_max, X.n_max - 1),
                                                 d_max, graded=graded,
                                                 columns=columns)
    bad = [e for e in report.entries if not e.exact]
    wit = ""
    if bad:
        e = bad[0]
        if not e.composite_zero:
            wit = (f"d o d != 0 on the block at position {e.position}, "
                   f"degrees {list(e.degrees)}")
        else:
            wit = (f"homology of dim {e.homology_dim} at position {e.position}, "
                   f"degrees {list(e.degrees)}")
    return CheckReport(f"exactness: {X.name}", instance,
                       {"hdeg": n_max, "gdeg": d_max}, not bad,
                       expect_failure, wit,
                       details={"strands": len(report.entries)})


@timed
def check_associativity(A, d_max, instance="", expect_failure=False):
    """(uv)w = u(vw) and unitality on basis words within budget."""
    budget = {"gdeg": d_max}
    words = A.basis_upto(min(d_max, A.max_degree))
    for u in words:
        if A.mul_words(u, A.unit) != {u: A.field.one} or \
                A.mul_words(A.unit, u) != {u: A.field.one}:
            return CheckReport(f"unitality: {A.name}", instance, budget,
                               False, expect_failure,
                               f"unit law fails on {A.format_word(u)}")
    for u in words:
        du = A.degree(u)
        for v in words:
            duv = du + A.degree(v)
            if duv > d_max:
                continue
            uv = A.mul_words(u, v)
            for w in words:
                if duv + A.degree(w) > d_max:
                    continue
                left = {}
                for m, c in uv.items():
                    accumulate_scaled(left, A.mul_words(m, w), c)
                right = {}
                for m, c in A.mul_words(v, w).items():
                    accumulate_scaled(right, A.mul_words(u, m), c)
                if left != right:
                    wit = (f"({A.format_word(u)})({A.format_word(v)})"
                           f"({A.format_word(w)})")
                    return CheckReport(f"associativity: {A.name}", instance,
                                       budget, False, expect_failure, wit)
    return CheckReport(f"associativity: {A.name}", instance, budget, True,
                       expect_failure)


class SignCorruptedBar(BarComplex):
    """Negative control: the i = 1 summand of d_2 carries the wrong sign.

    Flipping a single summand (rather than all of d_2) genuinely breaks
    d^2 = 0 and the exactness ranks, so the harness must flag it.
    """

    def __init__(self, A, n_max=3):
        super().__init__(A, reduced=True, n_max=n_max)
        self.name = f"corrupted-bar({A.name})"

    def diff_into(self, out, factor, n, comp, word):
        super().diff_into(out, factor, n, comp, word)
        if n != 2:
            return
        two = factor * self.A.field.from_int(2)
        for w, c in self.A.mul_words(word[1], word[2]).items():
            if w != self.A.unit:
                accumulate(out, ((), (word[0], w, word[3])), two * c)
