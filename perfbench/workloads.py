"""The benchmark's workloads: pinned windows, the timed checks, output digests.

Each workload builds its instances in ``setup`` (timed as set-up), runs its
checks in ``run`` (timed as ``verify_s``) and digests what the kernel
produced in ``outputs``, outside the timed region.  Windows are pinned here,
not taken from the suite's own budgets, so a later change to those budgets
does not move the benchmark.  Every call into the kernel goes through a
module attribute (``checks.check_chain_map``, not a name imported from it),
so the tracer's wrappers see these calls too.
"""

from __future__ import annotations

import hashlib
import json

from twistres import checks, complexes, instances, suite


def sha(lines):
    """Hex digest of an iterable of text lines."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def report_digest(report):
    return sha([json.dumps(report.to_json(), sort_keys=True)])


def element_lines(tag, elt):
    """One line per term of a FreeElement, in the kernel's own sort order."""
    for (comp, word), c in elt.items_sorted():
        yield f"{tag}|{comp!r}|{word!r}|{c}"


def seed_dependent(report):
    """Whether a report's content depends on the workload seed."""
    return "seed" in report.budget


class Workload:
    """Base class: subclasses set ``name`` and the three steps."""

    name = ""
    uses_seed = False

    def setup(self, seed):
        raise NotImplementedError

    def run(self, state):
        raise NotImplementedError

    def outputs(self, state, reports):
        return {}


class Lift(Workload):
    """Koszul-smash pipeline over F3 with the bootstrap-lifted pi."""

    name = "lift"

    def __init__(self, hdeg=None, gdeg=None, n_max=3, d_max=3):
        self.hdeg, self.gdeg = hdeg, gdeg
        self.n_max, self.d_max = n_max, d_max

    def setup(self, seed):
        inst = instances.builtin_instance("c2-koszul-kxy", field="F3",
                                          hdeg=self.hdeg, gdeg=self.gdeg)
        inst.bar_maps()
        return {"instance": inst}

    def run(self, state):
        return suite.pipeline_reports(state["instance"], n_max=self.n_max,
                                      d_max=self.d_max)

    def outputs(self, state, reports):
        inst = state["instance"]
        pipe = inst.koszul_pipeline(n_max=self.n_max, d_max=self.d_max)
        rbar = inst.bar_maps().rbar_A
        lines, count = [], 0
        for n in range(self.n_max + 1):
            for d in range(self.d_max + 1):
                for g in rbar.free_generators(n, d):
                    lines.extend(element_lines(f"{n}|{count}", pipe.pi.apply(n, g)))
                    lines.append("end")
                    count += 1
        return {"pi_generator_values": sha(lines), "pi_generators": str(count)}


class AwEz(Workload):
    """Word oracles over Q: closed group forms, chain maps, AW o EZ = 1."""

    name = "awez"

    def __init__(self, instance="s3-perm-kxyz", window=(2, 1), identity=(3, 1)):
        self.instance = instance
        self.window = window
        self.identity = identity

    def setup(self, seed):
        inst = instances.builtin_instance(self.instance)
        return {"instance": inst, "maps": inst.bar_maps()}

    def run(self, state):
        inst, maps = state["instance"], state["maps"]
        h, d = self.window
        reports = suite.group_closed_form_reports(inst, n_max=h, d_max=d)
        for f in (maps.aw_reduced, maps.ez_reduced, maps.twisted_unshuffle,
                  maps.twisted_shuffle):
            reports.append(checks.check_chain_map(f, h, d, instance=inst.name))
        ih, idg = self.identity
        reports.append(checks.check_identity_composition(
            maps.aw_reduced, maps.ez_reduced, ih, idg, instance=inst.name,
            name="AW o EZ = 1"))
        reports.append(checks.check_identity_composition(
            maps.ez_reduced, maps.aw_reduced, h, d, instance=inst.name,
            name="EZ o AW = 1 (negative control)", expect_failure=True))
        return reports

    def outputs(self, state, reports):
        maps = state["maps"]
        h, d_max = self.window
        aw, ez = [], []
        for n in range(h + 1):
            for d in range(d_max + 1):
                for comp, word in maps.rbar_A.basis(n, d):
                    aw.extend(element_lines(f"{n}|{word!r}",
                                            maps.aw_reduced.apply_word(n, comp, word)))
                    aw.append("end")
                for comp, word in maps.prod_rbar.basis(n, d):
                    ez.extend(element_lines(f"{n}|{comp!r}|{word!r}",
                                            maps.ez_reduced.apply_word(n, comp, word)))
                    ez.append("end")
        return {"aw_images": sha(aw), "ez_images": sha(ez)}


class StrandTap:
    """Keeps the ExactnessReport behind each exactness check while installed.

    ``checks.check_exactness_report`` looks ``check_truncated_exactness`` up
    in ``complexes`` on every call, so rebinding that one name sees every
    strand without computing any rank twice.
    """

    def __init__(self):
        self.reports = []

    def __enter__(self):
        self._orig = complexes.check_truncated_exactness

        def tap(*args, **kwargs):
            report = self._orig(*args, **kwargs)
            self.reports.append(report)
            return report

        complexes.check_truncated_exactness = tap
        return self

    def __exit__(self, *exc):
        complexes.check_truncated_exactness = self._orig
        return False


class Exact(Workload):
    """Truncated exactness of the four resolutions of s3-perm-kxyz over Q."""

    name = "exact"

    def __init__(self, instance="s3-perm-kxyz", window=(2, 1), control=(2, 0)):
        self.instance = instance
        self.window = window
        self.control = control

    def setup(self, seed):
        inst = instances.builtin_instance(self.instance)
        return {"instance": inst, "maps": inst.bar_maps()}

    def run(self, state):
        inst, maps = state["instance"], state["maps"]
        h, d = self.window
        with StrandTap() as tap:
            reports = [checks.check_exactness_report(X, h, d, inst.graded,
                                                     instance=inst.name)
                       for X in (maps.bar_A, maps.rbar_A, maps.Y, maps.prod_rbar)]
            corrupted = checks.SignCorruptedBar(inst.A, n_max=3)
            ch, cd = self.control
            reports.append(checks.check_exactness_report(
                corrupted, ch, cd, inst.graded, instance=inst.name,
                expect_failure=True))
        state["strands"] = tap.reports
        return reports

    def outputs(self, state, reports):
        lines = []
        for rep in state["strands"]:
            for e in rep.entries:
                lines.append(f"{rep.complex_name}|{e.position}|{list(e.degrees)}|"
                             f"{e.dim}|{e.rank_out}|{e.rank_in}|{e.composite_zero}")
        return {"strands": sha(lines), "strand_count": str(len(lines))}


class Battery(Workload):
    """What ``twistres verify`` runs on the four desk-scale instances."""

    name = "battery"
    uses_seed = True

    def __init__(self, names=(("example-5.2", None), ("quantum-plane", "F5"),
                              ("c2-skew", None), ("corrupted-twist", None)),
                 hdeg=None, gdeg=None):
        self.names = names
        self.hdeg, self.gdeg = hdeg, gdeg

    def setup(self, seed):
        insts = []
        for name, field in self.names:
            inst = instances.builtin_instance(name, field=field, hdeg=self.hdeg,
                                              gdeg=self.gdeg)
            inst.bar_maps()
            insts.append(inst)
        return {"instances": insts, "seed": seed}

    def run(self, state):
        reports = []
        for inst in state["instances"]:
            reports.extend(suite.run_suite(inst, seed=state["seed"]))
            if inst.action is not None and inst.name != "corrupted-twist":
                reports.extend(suite.group_closed_form_reports(inst))
        return reports


WORKLOADS = {w.name: w for w in (Lift(), AwEz(), Exact(), Battery())}


def digests(workload, state, reports):
    """Everything the gate compares: one digest per report, then outputs."""
    return {
        "reports": [report_digest(r) for r in reports],
        "seed_dependent": [seed_dependent(r) for r in reports],
        "outputs": workload.outputs(state, reports),
    }


def score(verdicts, got, expected, seed):
    """Count checks run and unexpected outcomes.

    ``verdicts`` holds ``report.ok`` per check.  ``got`` is the result of
    ``digests``; ``expected`` the pinned seed-0 digests.  Each report digest
    and each output digest is one more check.  A report whose content names
    the seed is compared only at seed 0.  Returns
    ``(attempted, failed, problems)``.
    """
    attempted = len(verdicts)
    problems = [f"check {i}: unexpected outcome" for i, ok in enumerate(verdicts)
                if not ok]
    want = expected["reports"]
    if len(want) != len(got["reports"]):
        attempted += 1
        problems.append(f"{len(got['reports'])} reports, pinned {len(want)}")
    else:
        for i, (a, b) in enumerate(zip(got["reports"], want)):
            if got["seed_dependent"][i] and seed != 0:
                continue
            attempted += 1
            if a != b:
                problems.append(f"report {i}: digest differs from the pinned one")
    for key, value in expected["outputs"].items():
        attempted += 1
        if got["outputs"].get(key) != value:
            problems.append(f"output {key}: digest differs from the pinned one")
    return attempted, len(problems), problems
