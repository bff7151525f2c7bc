import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from twistres.cli import main
from twistres.errors import InstanceError
from twistres.fields import PrimeField
from twistres.instances import BUILTIN_NAMES, builtin_instance, parse_instance
from twistres.serialize import complex_registry, element_to_json, parse_element

from test_hopf import QUANTUM_PLANE

DATA = "src/twistres/data"


def test_all_builtin_instances_parse():
    for name in BUILTIN_NAMES:
        inst = builtin_instance(name)
        assert inst.name == name
        assert inst.budgets.hdeg >= 2


def test_bundled_example_52_is_the_enveloping_algebra_instance():
    inst = builtin_instance("example-5.2")
    y, x = inst.S.parse_word("y"), inst.R.parse_word("x")
    assert inst.tau.apply(y, x) == {
        ((1,), (1,)): inst.field.one, ((1,), (0,)): inst.field.one}
    assert inst.field.characteristic == 0


def test_bundled_c2_skew_action():
    inst = builtin_instance("c2-skew")
    g = 1
    x = inst.R.parse_word("x")
    assert inst.action.act(g, x) == {x: inst.field.from_int(-1)}


def test_field_override_and_char2_rejected():
    inst = builtin_instance("c2-skew", field="F3")
    assert isinstance(inst.field, PrimeField) and inst.field.p == 3
    with pytest.raises(Exception):
        builtin_instance("c2-skew", field="F2")


def test_parse_instance_positioned_errors():
    base = {
        "name": "broken",
        "field": "Q",
        "R": {"family": "polynomial", "variables": ["x"]},
        "S": {"family": "polynomial", "variables": ["y"]},
        "twist": {"kind": "generator_rules", "rules": []},
    }
    bad = dict(base)
    bad["R"] = {"family": "weird"}
    with pytest.raises(InstanceError) as err:
        parse_instance(json.dumps(bad))
    assert "$.R" in str(err.value)
    bad = dict(base)
    bad["twist"] = {"kind": "unknown-kind"}
    with pytest.raises(InstanceError) as err:
        parse_instance(json.dumps(bad))
    assert "$.twist" in str(err.value)
    bad = dict(base)
    bad["twist"] = {"kind": "generator_rules",
                    "rules": [{"s": "y", "r": "z", "value": []}]}
    with pytest.raises(InstanceError):
        parse_instance(json.dumps(bad))
    with pytest.raises(InstanceError):
        parse_instance("{not json")


def test_element_round_trip():
    inst = builtin_instance("example-5.2")
    registry = complex_registry(inst)
    maps = inst.bar_maps()
    a_path = f"{DATA}/elements/a.json"
    cname, n, elt = parse_element(inst, open(a_path).read(), registry)
    assert (cname, n) == ("reduced_bar", 3)
    b = maps.aw_reduced.apply(n, elt)
    data = element_to_json(maps.prod_rbar, n, b)
    data["complex"] = "reduced_bar_product"
    cname2, n2, elt2 = parse_element(inst, json.dumps(data), registry)
    assert elt2 == b


def test_complex_registry_skips_only_instance_errors(monkeypatch):
    inst = builtin_instance("c2-skew", hdeg=2, gdeg=1)

    def no_koszul():
        raise InstanceError("no quadratic presentation")

    def broken():
        raise RuntimeError("koszul smash construction bug")

    monkeypatch.setattr(inst, "koszul_smash_complex", no_koszul)
    assert "koszul_smash" not in complex_registry(inst)
    monkeypatch.setattr(inst, "koszul_smash_complex", broken)
    with pytest.raises(RuntimeError):
        complex_registry(inst)


def test_element_coefficients_multiply_across_slots():
    # the term coefficient is the product of the slot coefficients
    inst = builtin_instance("example-5.2")
    registry = complex_registry(inst)
    data = {"complex": "reduced_bar", "degree": 1,
            "element": [{"slots": [
                {"algebra": "k[x](x)k[y]", "word": "1 # 1", "coeff": "2"},
                {"algebra": "k[x](x)k[y]~", "word": "x # 1", "coeff": "3/2"},
                {"algebra": "k[x](x)k[y]", "word": "1 # 1"}]}]}
    _, _, elt = parse_element(inst, json.dumps(data), registry)
    (key, coeff), = elt.data.items()
    assert coeff == inst.field.parse("3")


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_element_serialization_round_trip_property(data):
    inst = builtin_instance("example-5.2")
    registry = complex_registry(inst)
    maps = inst.bar_maps()
    name = data.draw(st.sampled_from(
        ["reduced_bar", "intermediate", "reduced_bar_product", "koszul"]))
    X = registry[name]
    n = data.draw(st.integers(0, 2), label="degree")
    d = data.draw(st.integers(0, 2), label="internal degree")
    words = X.basis(n, d)
    if not words:
        return
    elt = X.term(n).zero()
    for _ in range(data.draw(st.integers(1, 3), label="terms")):
        comp, word = data.draw(st.sampled_from(words), label="word")
        coeff = inst.field.from_int(data.draw(
            st.integers(-3, 3).filter(bool), label="coeff"))
        elt.add_term(comp, word, coeff)
    if elt.is_zero():
        return
    payload = element_to_json(X, n, elt)
    cname, n2, back = parse_element(inst, json.dumps(payload), registry)
    assert (cname, n2) == (name, n)
    assert back == elt


def test_element_parse_rejects_bad_slots():
    inst = builtin_instance("example-5.2")
    registry = complex_registry(inst)
    base = {"complex": "reduced_bar", "degree": 1,
            "element": [{"slots": [
                {"algebra": "k[x](x)k[y]", "word": "1 # 1", "coeff": "1"},
                {"algebra": "k[x](x)k[y]~", "word": "x # 1"},
                {"algebra": "k[x](x)k[y]", "word": "1 # 1"}]}]}
    assert parse_element(inst, json.dumps(base), registry)[2]
    bad = json.loads(json.dumps(base))
    bad["element"][0]["slots"][1]["word"] = "1 # 1"   # unit in a reduced slot
    with pytest.raises(InstanceError):
        parse_element(inst, json.dumps(bad), registry)
    bad = json.loads(json.dumps(base))
    bad["element"][0]["slots"][1]["algebra"] = "nope"
    with pytest.raises(InstanceError):
        parse_element(inst, json.dumps(bad), registry)
    bad = json.loads(json.dumps(base))
    bad["complex"] = "nonexistent"
    with pytest.raises(InstanceError):
        parse_element(inst, json.dumps(bad), registry)


def first_term(payload, **changes):
    payload["element"][0].update(changes)
    return payload


def first_coeff(payload, coeff):
    payload["element"][0]["slots"][0]["coeff"] = coeff
    return payload


# (field, edit of the payload of a.json, JSON path named in the error)
MALFORMED = [
    ("Q", lambda p: ["x"], "$:"),
    ("Q", lambda p: {**p, "element": ["oops"]}, "$.element[0]:"),
    ("Q", lambda p: first_term(p, component=5), "$.element[0].component:"),
    ("Q", lambda p: first_term(p, slots={"word": "x"}), "$.element[0].slots:"),
    ("Q", lambda p: first_term(p, slots=[7] * 5), "$.element[0].slots[0]:"),
    ("Q", lambda p: first_term(p, slots=[{"word": 1}] * 5),
     "$.element[0].slots[0].word:"),
    ("F5", lambda p: first_coeff(p, "1/0"), "$.element[0].slots[0].coeff:"),
    ("F5", lambda p: first_coeff(p, "1/x"), "$.element[0].slots[0].coeff:"),
    # a.json lives in degree 3 of the reduced bar, whose budget is 0..4
    ("Q", lambda p: {**p, "degree": 9}, "$.degree:"),
    ("Q", lambda p: {**p, "degree": -1}, "$.degree:"),
    ("Q", lambda p: {**p, "degree": True}, "$.degree:"),
    ("Q", lambda p: {**p, "degree": "3"}, "$.degree:"),
    ("Q", lambda p: {**p, "degree": 3.7}, "$.degree:"),
    # scalars are strings; a JSON number is refused over every field
    ("Q", lambda p: first_coeff(p, 2.5), "$.element[0].slots[0].coeff:"),
    ("F5", lambda p: first_coeff(p, 2), "$.element[0].slots[0].coeff:"),
]


@pytest.mark.parametrize("field, edit, location", MALFORMED)
def test_cli_malformed_element_is_a_parse_error(tmp_path, capsys, field, edit,
                                                location):
    payload = edit(json.loads(open(f"{DATA}/elements/a.json").read()))
    path = tmp_path / "element.json"
    path.write_text(json.dumps(payload))
    assert main(["--field", field, "aw", "--instance", "example-5.2",
                 "--element", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {location}")


def test_cli_shuffle(capsys):
    assert main(["shuffle", "2", "1"]) == 0
    out = capsys.readouterr().out
    assert "(2 3)" in out and "sign -1" in out
    assert "(2,1)-shuffles: 3" in out


def test_cli_aw_prints_b(capsys):
    rc = main(["aw", "--instance", "example-5.2",
               "--element", f"{DATA}/elements/a.json"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "4 *" in out and "y^2" in out


def test_cli_json_outputs_are_byte_identical(capsys):
    args = ["--json", "aw", "--instance", "example-5.2",
            "--element", f"{DATA}/elements/a.json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["complex"] == "reduced_bar_product"


# sha256 of the stdout of "twistres verify --instance NAME --json"; the
# reports, budgets and witnesses are meant to stay the same bit for bit
VERIFY_DIGESTS = [
    (["--instance", "example-5.2"],
     "98249805fb8738c2169d2ebad82941fecd8e720e887c9dc08c88fc66131d0f6d"),
    (["--instance", "c2-skew"],
     "f355020c052ec9a1308dc8278540b60ef76413b71de2c38de3189fdf32efec58"),
    (["--instance", "quantum-plane"],
     "77b8fb74ac0346e2476d1be4a7dd3da04d21f51c8a590d29ac8c9a6c181d648a"),
    (["--instance", "quantum-plane", "--field", "Q"],
     "77b8fb74ac0346e2476d1be4a7dd3da04d21f51c8a590d29ac8c9a6c181d648a"),
    (["--instance", "corrupted-twist"],
     "0d8ecbb7bf9f097b40d6875fb530575c04168e7cb5b6787e2e8b7a38d4afa95d"),
    # two instances with K_2 != 0, at a window that keeps tier-1 fast
    (["--instance", "c2-koszul-kxy", "--hdeg", "2", "--gdeg", "2"],
     "4aad317a502f082f5936b32403e29650c1ab4c22221f3d7723742346568187f1"),
    (["--instance", "c2-swap-kxy", "--hdeg", "2", "--gdeg", "2"],
     "92a0ab06342563504e6d5edd8a0c79e9ab6cafc570c83bafe80f7793c960c143"),
    # the trimmed windows, the Koszul pipeline at (2, 1) included
    (["--instance", "s3-perm-kxyz"],
     "d0eb6d349dc86d352a2b2c516d7706db21c3a7d880c6f4c9f53f7c7741c116c6"),
]


@pytest.mark.parametrize("args, digest", VERIFY_DIGESTS,
                         ids=["-".join(a[1:]) for a, _ in VERIFY_DIGESTS])
def test_cli_verify_json_is_pinned(capsys, args, digest):
    assert main(["verify", *args, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_cli_build(capsys):
    rc = main(["build", "--instance", "example-5.2", "--complex", "koszul",
               "--complex", "reduced_bar"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "koszul" in out and "free generators" in out


def test_cli_usage_error_exit_code(capsys):
    assert main(["aw", "--instance", "example-5.2",
                 "--element", "no-such-file.json"]) == 2
    assert main(["build", "--instance", "no-such-instance.json"]) == 2
    assert main(["nonsense-command"]) == 2


def test_cli_verify_takes_seed_and_exhaustive(capsys):
    assert main(["verify", "--instance", "quantum-plane", "--hdeg", "2",
                 "--gdeg", "2", "--exhaustive", "--seed", "1"]) == 0


# sha256 of the stdout of "twistres convert --instance c2-skew --pipeline P
# --json"
CONVERT_DIGESTS = [
    ("koszul-smash",
     "777b838a701534581fb04780c7bbbec88dc1d2fabf47cc9c7323bad48cad2c6b"),
    ("bar-identity",
     "4f534c9c92c018556692bee69dd9ae4953633588ec8cd9631eee8a8a06203529"),
]


@pytest.mark.parametrize("pipeline, digest", CONVERT_DIGESTS,
                         ids=[p for p, _ in CONVERT_DIGESTS])
def test_cli_convert_json_is_pinned(capsys, pipeline, digest):
    assert main(["convert", "--instance", "c2-skew", "--pipeline", pipeline,
                 "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_cli_convert_runs_a_trimmed_instance_on_its_windows(capsys):
    # s3-perm-kxyz's pipeline is built through (2, 1), and convert samples
    # generators inside that window only, where pi inverts iota
    assert main(["convert", "--instance", "s3-perm-kxyz", "--json"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["generator_images"]
    assert all(g["pi_iota_is_identity"] for g in cert["generator_images"])
    assert main(["convert", "--instance", "s3-perm-kxyz",
                 "--pipeline", "bar-identity", "--json"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert [c["budget"] for c in cert["checks"]] == [{"hdeg": 2, "gdeg": 0}] * 3


def test_cli_seed_is_refused_outside_verify(capsys):
    # only verify samples bimodule coefficients, so convert has no --seed
    assert main(["convert", "--instance", "c2-koszul-kxy", "--seed", "1"]) == 2


def test_cli_verify_exit_codes(capsys):
    rc = main(["verify", "--instance", "example-5.2",
               "--hdeg", "3", "--gdeg", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "AW o EZ = 1" in out
    # the report carries the reference-value checks of the bundled instance
    for token in ("AW(a)=b", "EZ(b)=c", "AW(c)=b"):
        assert token in out and "PASS" in out
    # a verification failure (not a usage error) exits 1: corrupt the suite
    # by running the corrupted instance without its expected-failure tag
    rc = main(["--json", "verify", "--instance", "corrupted-twist"])
    out = capsys.readouterr().out
    assert rc == 0  # negative control failing as documented is green
    payload = json.loads(out)
    axiom = [r for r in payload["reports"]
             if r["check"].startswith("twist axiom")][0]
    assert axiom["passed"] is False and axiom["ok"] is True


@pytest.mark.parametrize("S, path", [
    ({"family": "structure_constants", "elements": ["e", "g"],
      "table": [["e", "h"], ["g", "e"]]}, "$.S.table[0][1]"),
    ({"family": "group", "group": {"kind": "table", "elements": ["e", "g"],
                                   "table": [[0, 1]]}}, "$.S.group.table"),
    ({"family": "group", "group": {"kind": "table", "elements": ["e", "g"],
                                   "table": [[0, 5], [1, 0]]}},
     "$.S.group.table[0][1]"),
    ({"family": "structure_constants", "elements": ["e", "g"],
      "table": [["e", "g"], ["g", "g"]]}, "$.S.table"),
    ({"family": "group", "group": {"kind": "table", "elements": ["e", "g"],
                                   "table": [[1, 0], [0, 0]]}},
     "$.S.group.table"),
])
def test_cli_malformed_group_tables_are_parse_errors(tmp_path, capsys, S, path):
    # an unknown element name, a ragged table, an out-of-range index and a
    # table that breaks the group axioms (g without inverse, no identity)
    # are all refused by the parser (exit 2) at their JSON path
    desc = {"name": "bad-table", "field": "Q",
            "R": {"family": "polynomial", "variables": ["x"]}, "S": S,
            "twist": {"kind": "hopf_action", "hopf": {"kind": "group_algebra"},
                      "action": {}}}
    instance = tmp_path / "bad-table.json"
    instance.write_text(json.dumps(desc))
    rc = main(["verify", "--instance", str(instance)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"error: {path}: " in err


POLY = {"family": "polynomial", "variables": ["x"]}
C2 = {"family": "group", "group": {"kind": "cyclic", "order": 2}}
REWRITING_X = {"family": "rewriting", "generators": ["x"], "rules": []}
POLY_XY = {"family": "polynomial", "variables": ["x", "y"]}
S3 = {"family": "group", "group": {"kind": "symmetric", "degree": 3}}


def rewriting(*terms):
    return {"family": "rewriting", "generators": ["x", "y"],
            "rules": [{"left": "y*x", "value": [{"word": "x*y"}, *terms]}]}


@pytest.mark.parametrize("R, S, path", [
    (POLY, {"family": "group", "group": {"kind": "cyclic", "order": "x"}},
     "$.S.group.order"),
    (POLY, {"family": "group", "group": {"kind": "symmetric", "degree": 2.5}},
     "$.S.group.degree"),
    (rewriting({"word": "x*z"}), C2, "$.R.rules[0].value[1].word"),
    (rewriting({"coeff": "1"}), C2, "$.R.rules[0].value[1]"),
    (rewriting({"word": 3}), C2, "$.R.rules[0].value[1].word"),
    ({"family": "rewriting", "generators": ["x", "y"], "rules": 7}, C2,
     "$.R.rules"),
    ({"family": "rewriting", "generators": 3, "rules": []}, C2, "$.R.generators"),
    ({"family": "rewriting", "generators": ["x", "y"],
      "rules": [{"left": 5, "value": []}]}, C2, "$.R.rules[0].left"),
    ({"family": "polynomial", "variables": "xy"}, C2, "$.R.variables"),
    ({"family": "polynomial", "variables": ["x", "x"]}, C2, "$.R.variables"),
    ({"family": "rewriting", "generators": ["x", "x"], "rules": []}, C2,
     "$.R.generators"),
    ({"family": "rewriting", "generators": [7, "y"], "rules": []}, C2,
     "$.R.generators"),
    ({"family": "rewriting", "generators": ["x", "y"],
      "rules": [{"left": "x*y", "value": [{"word": "x*y"}]}]}, C2,
     "$.R.rules[0].left"),
    (rewriting({"word": "x*x*y"}), C2, "$.R.rules[0].value[1].word"),
    ({"family": "rewriting", "generators": ["x", "y"], "rules": []}, C2,
     "$.R.rules"),
    ({"family": "rewriting", "generators": ["x", "y"],
      "rules": [{"left": "y*x", "value": [{"word": "x*y", "coeff": "2"}]},
                {"left": "y*x", "value": [{"word": "x*y", "coeff": "-1"}]}]},
     C2, "$.R.rules[1].left"),
])
def test_cli_malformed_algebras_are_parse_errors(tmp_path, capsys, R, S, path):
    # a group size that is not an integer, a rule word naming an undeclared
    # generator, a rule term without a string word, a rewriting field of
    # the wrong type, a name list that is no list of distinct strings, a
    # rule on a pair that is no descent, a rule that raises word length, a
    # descent without a rule and a second rule on one descent are refused
    # by the parser (exit 2) at their JSON path, not raised as Python errors
    desc = {"name": "bad-algebra", "field": "Q", "R": R, "S": S,
            "twist": {"kind": "hopf_action", "hopf": {"kind": "group_algebra"},
                      "action": {}}}
    instance = tmp_path / "bad-algebra.json"
    instance.write_text(json.dumps(desc))
    rc = main(["verify", "--instance", str(instance)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"error: {path}: " in err


# (the "budgets" field of quantum-plane's JSON, or None to run the
# built-in; CLI arguments; the path refused)
MALFORMED_BUDGETS = [
    (None, ["--hdeg", "0"], "$.budgets.hdeg"),
    (None, ["--hdeg", "-1"], "$.budgets.hdeg"),
    (None, ["--gdeg", "-2"], "$.budgets.gdeg"),
    (None, ["--gdeg", "0"], "$.budgets.gdeg"),
    ({"hdeg": -1}, [], "$.budgets.hdeg"),
    ({"hdeg": "x"}, [], "$.budgets.hdeg"),
    ({"hdeg": 1.5}, [], "$.budgets.hdeg"),
    ({"hdeg": True}, [], "$.budgets.hdeg"),
    ({"gdeg": 0}, [], "$.budgets.gdeg"),
    ([1, 2], [], "$.budgets"),
]


@pytest.mark.parametrize("budgets, args, path", MALFORMED_BUDGETS)
def test_cli_malformed_budgets_are_parse_errors(tmp_path, capsys, budgets, args,
                                                path):
    # a budget that is no int of at least 1 (a bool included), from the JSON
    # or from --hdeg/--gdeg, and budgets that are no object are refused by
    # the parser (exit 2) at their JSON path: not an IndexError from an
    # empty strand, a silent int() or a battery run on an empty window
    instance = "quantum-plane"
    if budgets is not None:
        desc = json.loads(open(f"{DATA}/instances/quantum-plane.json").read())
        desc["budgets"] = budgets
        instance = tmp_path / "budgets.json"
        instance.write_text(json.dumps(desc))
    assert main(["verify", "--instance", str(instance), *args]) == 2
    assert f"error: {path}: " in capsys.readouterr().err


def test_smallest_budgets_parse():
    desc = json.loads(open(f"{DATA}/instances/quantum-plane.json").read())
    desc["budgets"] = {"hdeg": 1, "gdeg": 1}
    assert parse_instance(desc).budgets.hdeg == 1
    assert builtin_instance("quantum-plane", hdeg=1, gdeg=1).budgets.gdeg == 1


def test_pipeline_key_is_not_read():
    # every instance with an action runs the pipeline; a "pipeline" key is
    # ignored like any other unknown key
    desc = json.loads(open(f"{DATA}/instances/c2-skew.json").read())
    assert parse_instance({**desc, "pipeline": "no"}).action is not None


def hopf_action(action):
    return {"kind": "hopf_action", "hopf": {"kind": "group_algebra"},
            "action": action}


def generator_rules(rules):
    return {"kind": "generator_rules", "rules": rules}


def hopf_tables(**tables):
    # the group-like Hopf structure of kC2 as explicit tables, with
    # ``tables`` replacing some of them
    hopf = {"kind": "tables",
            "coproduct": {h: [{"h1": h, "h2": h}] for h in ("e", "g")},
            "counit": {"e": "1", "g": "1"},
            "antipode": {h: [{"word": h}] for h in ("e", "g")}}
    return {"kind": "hopf_action", "hopf": {**hopf, **tables}, "action": {}}


@pytest.mark.parametrize("S, twist, path", [
    (POLY, generator_rules(7), "$.twist.rules"),
    (POLY, generator_rules([{"s": "x", "r": "x", "value": 7}]),
     "$.twist.rules[0].value"),
    (POLY, {"kind": "bicharacter", "q": [1]}, "$.twist.q"),
    (C2, hopf_action({"g x": [{"word": "x"}]}), '$.twist.action["g x"]'),
    (C2, hopf_action([]), "$.twist.action"),
    (C2, hopf_action({"g | x": [{"coeff": "-1"}]}),
     '$.twist.action["g | x"][0]'),
    (C2, {"kind": "group_action", "matrices": 7}, "$.twist.matrices"),
    (C2, {"kind": "hopf_action", "action": {},
          "hopf": {"kind": "tables", "coproduct": 7, "counit": {},
                   "antipode": {}}}, "$.twist.hopf.coproduct"),
    (C2, {"kind": "group_action", "matrices": {"g": 7}},
     '$.twist.matrices["g"]'),
    (C2, {"kind": "group_action", "matrices": {"g": [["a"]]}},
     '$.twist.matrices["g"][0][0]'),
    (C2, hopf_tables(coproduct={"g": 7}), '$.twist.hopf.coproduct["g"]'),
    (C2, hopf_tables(coproduct={"g": [{"h1": "g"}]}),
     '$.twist.hopf.coproduct["g"][0]'),
    (C2, hopf_tables(antipode={"g": [{"coeff": "1"}]}),
     '$.twist.hopf.antipode["g"][0]'),
    (C2, hopf_tables(counit={"g": "x"}), '$.twist.hopf.counit["g"]'),
    (C2, hopf_tables(counit={"z": "1"}), '$.twist.hopf.counit["z"]'),
    ((POLY_XY, S3), {"kind": "group_action", "permutation_on_variables": True},
     "$.twist.permutation_on_variables"),
    ((REWRITING_X, C2), {"kind": "group_action",
                         "permutation_on_variables": True},
     "$.twist.permutation_on_variables"),
    (C2, {"kind": "group_action", "matrices": {"h": [[-1]], "g": [[-1]]}},
     '$.twist.matrices["h"]'),
    (C2, {"kind": "group_action", "matrices": {}}, "$.twist.matrices"),
    (POLY, {"kind": "bicharacter", "q": "0"}, "$.twist.q"),
    ((POLY, POLY, "F5"), {"kind": "bicharacter", "q": "5"}, "$.twist.q"),
    (C2, hopf_tables(coproduct={"g": [{"h1": "g", "h2": "g"}]}),
     "$.twist.hopf.coproduct"),
    (C2, hopf_action({"g | x": [{"word": "x", "coeff": "-1"}],
                      "g | x^3": [{"word": "x^3"}]}),
     '$.twist.action["g | x^3"]'),
    (C2, hopf_action({"g | x": [{"word": "x", "coeff": "-1"}],
                      "e | x": [{"word": "x", "coeff": "2"}]}),
     '$.twist.action["e | x"]'),
    ((POLY_XY, C2), hopf_action({"g | x": [{"word": "x", "coeff": "-1"}]}),
     "$.twist.action"),
    ((QUANTUM_PLANE, C2), {"kind": "group_action",
                           "matrices": {"g": [[1, 0], [1, -1]]}},
     "$.twist.matrices"),
    (C2, hopf_tables(antipode={"e": [{"word": "e"}], "g": [{"word": "e"}]}),
     "$.twist.hopf"),
    (POLY, generator_rules([{"s": "x", "r": "x", "value": [{"r": "x", "s": "x"}]},
                            {"s": "1", "r": "x", "value": [{"r": "x", "s": "x"}]}]),
     "$.twist.rules[1]"),
    (C2, hopf_action({"g | x": [{"word": "x", "coeff": "-1"}],
                      "g|x": [{"word": "x"}]}), '$.twist.action["g|x"]'),
    (POLY, generator_rules([{"s": "x", "r": "x",
                             "value": [{"r": "x", "s": "x", "coeff": "2"}]},
                            {"s": " x", "r": "x",
                             "value": [{"r": "x", "s": "x"}]}]),
     "$.twist.rules[1]"),
])
def test_cli_malformed_twists_are_parse_errors(tmp_path, capsys, S, twist, path):
    # a rules or value field that is no list, a scalar that is no literal
    # of the field, an action key without "|", an action, matrix table or
    # Hopf table that is no object, a matrix that is no square of integers,
    # a Hopf table entry that is no list of terms, a term without one of
    # its words, an unknown element name, a matrix key naming no group
    # element, a missing matrix, a group element that permutes no points
    # of R's generators (S3 on two of them, or a name not in cycle
    # notation), a bicharacter q that is zero in the field, a Hopf table
    # that omits a basis word of S or breaks the Hopf axioms, an action
    # entry that its generator images contradict (e | x = 2x, g | x^3 =
    # x^3 where g | x = -x), a generator without an image, images that break
    # R's relations, a generator rule that breaks the unit axiom and an
    # action key or generator rule that names a pair already listed are
    # refused by the parser (exit 2) at their JSON path, not raised as
    # Python errors.  S is a pair (R, S) where the case needs another R than
    # POLY, or a triple (R, S, field) for another field than Q.
    R, S, *field = S if isinstance(S, tuple) else (POLY, S)
    desc = {"name": "bad-twist", "field": field[0] if field else "Q",
            "R": R, "S": S, "twist": twist}
    instance = tmp_path / "bad-twist.json"
    instance.write_text(json.dumps(desc))
    rc = main(["verify", "--instance", str(instance)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"error: {path}: " in err


def test_cli_group_action_on_a_rewriting_r_verifies(tmp_path, capsys):
    # a matrix action acts on any R through its degree-1 generators: C2
    # negating the generator of k<x> (no rules, so k[x]) is the sign action
    desc = {"name": "sign-on-rewriting", "field": "Q",
            "budgets": {"hdeg": 2, "gdeg": 3}, "R": REWRITING_X, "S": C2,
            "twist": {"kind": "group_action", "matrices": {"g": [[-1]]}}}
    instance = tmp_path / "sign.json"
    instance.write_text(json.dumps(desc))
    assert main(["verify", "--instance", str(instance)]) == 0
    assert "0 unexpected outcomes" in capsys.readouterr().out


# (fields replacing quantum-plane's, or the instance file's whole content
# when no object, or None to run the built-in; CLI arguments; the path
# refused)
MALFORMED_INSTANCES = [
    ([1], [], "$"),
    ("x", [], "$"),
    ({"field": "Fx"}, [], "$.field"),
    ({"field": "GF"}, [], "$.field"),
    ({"field": {"p": 5}}, [], "$.field"),
    ({"field": {"prime": "x"}}, [], "$.field"),
    (None, ["--field", "Fx"], "$.field"),
    ({"R": 7}, [], "$.R"),
    ({"twist": [1]}, [], "$.twist"),
    ({"field": "FG7"}, [], "$.field"),
    (None, ["--field", "GF(5"], "$.field"),
]


@pytest.mark.parametrize("content, args, path", MALFORMED_INSTANCES)
def test_cli_malformed_instances_are_parse_errors(tmp_path, capsys, content,
                                                  args, path):
    # a top-level value that is no object, a field descriptor that names no
    # field (from the file or from --field) and an algebra or twist
    # descriptor that is no object are refused by the parser (exit 2) at
    # their JSON path, not raised as Python errors
    instance = "quantum-plane"
    if content is not None:
        if isinstance(content, dict):
            with open(f"{DATA}/instances/quantum-plane.json") as fh:
                content = {**json.load(fh), **content}
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps(content))
    assert main(["verify", "--instance", str(instance), *args]) == 2
    assert f"error: {path}: " in capsys.readouterr().err


def test_cli_failed_twist_axiom_ends_the_battery(tmp_path, capsys):
    # the corrupted twist under a name that marks no control: its axiom
    # fails unexpectedly, and nothing runs on a product that is no algebra
    desc = json.loads(open(f"{DATA}/instances/corrupted-twist.json").read())
    desc["name"] = "my-broken"
    path = tmp_path / "my-broken.json"
    path.write_text(json.dumps(desc))
    assert main(["verify", "--instance", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.endswith("3 checks, 1 unexpected outcomes\n")
    assert "twist" in out.splitlines()[2] and "FAIL" in out.splitlines()[2]


def test_cli_verify_flags_broken_instance(tmp_path, capsys):
    # an instance whose twist is corrupted but NOT marked as a control
    # must make verify exit 1
    desc = json.loads(open(f"{DATA}/instances/corrupted-twist.json").read())
    desc["name"] = "not-a-control"
    desc["budgets"] = {"hdeg": 2, "gdeg": 3}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(desc))
    rc = main(["verify", "--instance", str(path)])
    capsys.readouterr()
    assert rc == 1
