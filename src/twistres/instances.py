"""Instance descriptions: fields, algebras, twists, budgets.

An instance bundles the two factor algebras, the twisting map, and degree
budgets; everything downstream (complexes, AW/EZ maps, pipelines) is built
lazily from it.  Instances parse from a JSON description; the built-in
examples ship as data files and load through the same parser.
"""

from __future__ import annotations

import json
from importlib import resources

from .algebras import (Group, GroupAlgebra, PolynomialAlgebra,
                       RewritingAlgebra, TwistedProductAlgebra)
from .awez import TwistedBarMaps
from .complexes import KoszulComplex
from .conversion import smash_koszul_pipeline, smash_product_complex
from .errors import ActionNotAdmissible, InstanceError, TwistresError
from .fields import FieldError, field_from_name
from .hopf import (HopfAction, HopfAlgebra, group_hopf, linear_group_action,
                   permutation_group_action, smash_twist)
from .twisting import bicharacter_twist, twist_from_generator_rules


class Budgets:
    """Degree budgets: homological (hdeg) and internal (gdeg).

    Immutable, and equal (with equal hashes) exactly when both budgets are."""

    __slots__ = ("hdeg", "gdeg")

    def __init__(self, hdeg: int = 4, gdeg: int = 6):
        object.__setattr__(self, "hdeg", hdeg)
        object.__setattr__(self, "gdeg", gdeg)

    def __setattr__(self, name, value):
        raise AttributeError("budgets are immutable")

    def __delattr__(self, name):
        raise AttributeError("budgets are immutable")

    def __reduce__(self):
        return Budgets, (self.hdeg, self.gdeg)

    def __eq__(self, other):
        if other.__class__ is not Budgets:
            return NotImplemented
        return (self.hdeg, self.gdeg) == (other.hdeg, other.gdeg)

    def __hash__(self):
        return hash((self.hdeg, self.gdeg))


class Instance:
    """A validated instance with lazy construction of its resolutions."""

    def __init__(self, name, field, R, S, tau, budgets, action=None,
                 description="", run_pipeline=True):
        self.name = name
        self.field = field
        self.R = R
        self.S = S
        self.tau = tau
        self.budgets = budgets
        self.action = action
        self.description = description
        self.run_pipeline = run_pipeline
        self._maps = None
        self._pipelines = {}           # (n_max, d_max) -> Conversion

    @property
    def graded(self):
        return self.tau.strongly_graded

    @property
    def A(self):
        return self.bar_maps().A

    def bar_maps(self):
        if self._maps is None:
            # internal products in the AW/EZ tower stay within 2*gdeg
            A = TwistedProductAlgebra(self.R, self.S, self.tau,
                                      max_degree=2 * self.budgets.gdeg)
            self._maps = TwistedBarMaps(A, self.budgets.hdeg)
        return self._maps

    def koszul_complex(self, n_max=None):
        return KoszulComplex(self.R,
                             n_max if n_max is not None else self.budgets.hdeg)

    def koszul_pipeline(self, n_max=None, d_max=None):
        if self.action is None:
            raise InstanceError(
                f"instance {self.name} has no Hopf action; "
                "the Koszul pipeline needs one")
        key = (n_max if n_max is not None else self.budgets.hdeg,
               d_max if d_max is not None else min(self.budgets.gdeg, 3))
        if key not in self._pipelines:
            self._pipelines[key] = smash_koszul_pipeline(self.bar_maps(), *key)
        return self._pipelines[key]

    def koszul_smash_complex(self):
        """X = K (x)_tau rbar(H) at the homological budget, without building
        the bootstrap lift (a cached pipeline's X is reused)."""
        if self.action is None:
            raise InstanceError(
                f"instance {self.name} has no Hopf action")
        for (n_max, _), pipe in self._pipelines.items():
            if n_max == self.budgets.hdeg:
                return pipe.X
        return smash_product_complex(self.bar_maps(), self.budgets.hdeg)

    def complexes(self):
        """Named resolutions this instance builds."""
        maps = self.bar_maps()
        out = {
            "bar": maps.bar_A,
            "reduced_bar": maps.rbar_A,
            "intermediate": maps.Y,
            "bar_product": maps.prod_bar,
            "reduced_bar_product": maps.prod_rbar,
        }
        try:
            out["koszul"] = self.koszul_complex()
        except InstanceError:
            pass
        for key, X in out.items():
            X.io_name = key
        return out

    def __repr__(self):
        return f"Instance({self.name} over {self.field.name})"


# -- JSON parsing -------------------------------------------------------------


def _need(data, key, location, kind=object):
    """``data[key]``, refused at its path unless ``data`` is an object
    holding ``key`` and the value is a ``kind``."""
    if not isinstance(data, dict):
        raise InstanceError(f"expected an object with field {key!r}", location)
    if key not in data:
        raise InstanceError(f"missing field {key!r}", location)
    if not isinstance(data[key], kind):
        raise InstanceError(f"field {key!r} must be a {kind.__name__}",
                            f"{location}.{key}")
    return data[key]


def _names(data, key, location):
    """``data[key]``, refused at its path unless it is a nonempty list of
    distinct strings."""
    names = _need(data, key, location)
    if not (isinstance(names, list) and names
            and all(isinstance(v, str) for v in names)
            and len(set(names)) == len(names)):
        raise InstanceError(f"{key} must be a nonempty list of distinct names",
                            f"{location}.{key}")
    return names


def _budget(budgets, key, override, default):
    """The budget ``key``: ``override`` unless None, else ``budgets[key]``
    (``default`` when absent), refused at its path unless an int >= 1."""
    value = override if override is not None else budgets.get(key, default)
    if type(value) is not int or value < 1:
        raise InstanceError(f"{key} must be an integer of at least 1, "
                            f"not {value!r}", f"$.budgets.{key}")
    return value


def _parse_algebra(field, data, gdeg, location):
    family = _need(data, "family", location)
    if family == "polynomial":
        return PolynomialAlgebra(field, _names(data, "variables", location), gdeg)
    if family == "group":
        spec = _need(data, "group", location)
        kind = _need(spec, "kind", f"{location}.group")
        if kind in ("cyclic", "symmetric"):
            key = "order" if kind == "cyclic" else "degree"
            size = _need(spec, key, f"{location}.group")
            if type(size) is not int or size < 1:
                raise InstanceError(f"{key} must be a positive integer",
                                    f"{location}.group.{key}")
            group = (Group.cyclic if kind == "cyclic" else Group.symmetric)(size)
        elif kind == "table":
            group = _parse_group_table(spec, f"{location}.group", by_name=False)
        else:
            raise InstanceError(f"unknown group kind {kind!r}", f"{location}.group")
        return GroupAlgebra(field, group, gdeg)
    if family == "rewriting":
        gens = _names(data, "generators", location)
        rules = {}
        for k, rule in enumerate(_need(data, "rules", location, list)):
            loc = f"{location}.rules[{k}]"
            left = _need(rule, "left", loc, str)
            pieces = left.split("*")
            if len(pieces) != 2:
                raise InstanceError("rule left side must be a length-2 word", loc)
            try:
                j, i = gens.index(pieces[0]), gens.index(pieces[1])
            except ValueError:
                raise InstanceError(f"undeclared generator in {left!r}", loc) from None
            value = {}
            for t, term in enumerate(_need(rule, "value", loc, list)):
                text = _need(term, "word", f"{loc}.value[{t}]", str)
                try:
                    word = tuple(gens.index(g) for g in text.split("*") if g != "1")
                except ValueError:
                    raise InstanceError(f"undeclared generator in {text!r}",
                                        f"{loc}.value[{t}].word") from None
                value[word] = _scalar(field, term.get("coeff", "1"),
                                      f"{loc}.value[{t}].coeff")
            rules[(j, i)] = value
        return RewritingAlgebra(field, gens, rules, gdeg)
    if family == "structure_constants":
        group = _parse_group_table(data, location, by_name=True)
        return GroupAlgebra(field, group, gdeg)
    raise InstanceError(f"unknown algebra family {family!r}", f"{location}.family")


def _parse_group_table(data, location, by_name):
    """The group of ``data``'s ``elements`` and n x n Cayley ``table``, whose
    entries are indices 0..n-1, or element names when ``by_name``."""
    elements = _names(data, "elements", location)
    table = _need(data, "table", location)
    n = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    location = f"{location}.table"
    if not isinstance(table, list) or len(table) != n:
        raise InstanceError(f"the table must have {n} rows", location)
    rows = []
    for i, row in enumerate(table):
        if not isinstance(row, list) or len(row) != n:
            raise InstanceError(f"each row must have {n} entries",
                                f"{location}[{i}]")
        rows.append([])
        for j, entry in enumerate(row):
            k = entry
            if by_name:
                k = index.get(entry) if isinstance(entry, str) else None
            if type(k) is not int or not 0 <= k < n:
                expected = "an element name" if by_name else f"an index in 0..{n - 1}"
                raise InstanceError(f"entry {entry!r} is not {expected}",
                                    f"{location}[{i}][{j}]")
            rows[i].append(k)
    return Group(elements, rows, name=data.get("name", "G"))


def _scalar(field, text, location):
    """``field.parse(text)``, refused at ``location`` when it is no scalar."""
    try:
        return field.parse(text)
    except (TwistresError, ValueError, ZeroDivisionError) as exc:
        raise InstanceError(str(exc), location) from None


def _word(algebra, text, location):
    """``algebra.parse_word(text)``, refused at ``location``."""
    try:
        return algebra.parse_word(text)
    except InstanceError as exc:
        raise InstanceError(str(exc), location) from None


def _terms(field, slots, terms, location):
    """{word: coeff} of a list of terms whose field ``name`` is a word of
    ``algebra`` for each (name, algebra) of ``slots`` (a tuple of words for
    several slots); a later term of a word replaces an earlier one."""
    if not isinstance(terms, list):
        raise InstanceError("expected a list of terms", location)
    out = {}
    for t, term in enumerate(terms):
        loc = f"{location}[{t}]"
        key = tuple(_word(algebra, _need(term, name, loc, str), f"{loc}.{name}")
                    for name, algebra in slots)
        out[key if len(key) > 1 else key[0]] = _scalar(
            field, term.get("coeff", "1"), f"{loc}.coeff")
    return out


def _check_matrices(R, G, matrices, location):
    """Refuse a key naming no element of the group G, a missing matrix of an
    element other than the identity, and a matrix that is not n rows of n
    integers, n the number of R's degree-1 generators."""
    n = len(R.basis(1))
    missing = [g for k, g in enumerate(G.elements)
               if k != G.identity and g not in matrices]
    if missing:
        raise InstanceError(f"no matrix for group element {missing[0]}", location)
    for name, M in matrices.items():
        loc = f"{location}[{json.dumps(name)}]"
        if name not in G.elements:
            raise InstanceError(f"{name!r} names no element of {G.name}", loc)
        if not (isinstance(M, list) and len(M) == n
                and all(isinstance(row, list) and len(row) == n for row in M)):
            raise InstanceError(f"a matrix must be {n} rows of {n} entries", loc)
        bad = [f"{loc}[{i}][{j}]" for i, row in enumerate(M)
               for j, c in enumerate(row) if type(c) is not int]
        if bad:
            raise InstanceError("a matrix entry must be an integer", bad[0])
    return matrices


def _parse_twist(field, R, S, data, location):
    kind = _need(data, "kind", location)
    if kind == "generator_rules":
        rules = {}
        for k, rule in enumerate(_need(data, "rules", location, list)):
            loc = f"{location}.rules[{k}]"
            s_word = _word(S, _need(rule, "s", loc, str), f"{loc}.s")
            r_word = _word(R, _need(rule, "r", loc, str), f"{loc}.r")
            rules[(s_word, r_word)] = _terms(
                field, (("r", R), ("s", S)), _need(rule, "value", loc),
                f"{loc}.value")
        return twist_from_generator_rules(S, R, rules), None
    if kind == "bicharacter":
        q = _scalar(field, _need(data, "q", location), f"{location}.q")
        if not q:
            raise InstanceError("q must be a unit of the field", f"{location}.q")
        return bicharacter_twist(S, R, q), None
    if kind == "group_action":
        if not isinstance(S, GroupAlgebra):
            raise InstanceError("group_action twists need a group-algebra S",
                                location)
        hopf = group_hopf(S)
        if data.get("permutation_on_variables"):
            try:
                action = permutation_group_action(hopf, R)
            except ActionNotAdmissible as exc:
                raise InstanceError(
                    str(exc), f"{location}.permutation_on_variables") from None
        else:
            matrices = _check_matrices(
                R, S.group, _need(data, "matrices", location, dict),
                f"{location}.matrices")
            action = linear_group_action(hopf, R, matrices)
        return smash_twist(action), action
    if kind == "hopf_action":
        hopf = _parse_hopf_tables(field, S, _need(data, "hopf", location, dict),
                                  f"{location}.hopf")
        images = {}
        for key, terms in _need(data, "action", location, dict).items():
            loc = f"{location}.action[{json.dumps(key)}]"
            h_name, bar, r_name = key.partition("|")
            if not bar:
                raise InstanceError('action keys read "h | r"', loc)
            image = _terms(field, (("word", R),), terms, loc)
            images[(_word(S, h_name.strip(), loc),
                    _word(R, r_name.strip(), loc))] = image
        action = HopfAction(hopf, R, images)
        return smash_twist(action), action
    raise InstanceError(f"unknown twist kind {kind!r}", f"{location}.kind")


def _parse_hopf_tables(field, S, data, location):
    if data.get("kind", "group_algebra") == "group_algebra":
        if not isinstance(S, GroupAlgebra):
            raise InstanceError("group_algebra Hopf structure needs a group S",
                                location)
        return group_hopf(S)

    def table(key, *slots):
        # {S-word of each name: its terms over slots, or its scalar}, with
        # an entry for every basis word of S
        out = {}
        for name, entry in _need(data, key, location, dict).items():
            loc = f"{location}.{key}[{json.dumps(name)}]"
            out[_word(S, name, loc)] = (_terms(field, slots, entry, loc) if slots
                                        else _scalar(field, entry, loc))
        missing = [w for w in S.basis_upto(S.max_degree) if w not in out]
        if missing:
            raise InstanceError(f"no entry for {S.format_word(missing[0])}",
                                f"{location}.{key}")
        return out

    coproduct = table("coproduct", ("h1", S), ("h2", S))
    counit = table("counit")
    antipode = table("antipode", ("word", S))
    antipode_inv = (table("antipode_inv", ("word", S))
                    if "antipode_inv" in data else antipode)
    return HopfAlgebra(S, coproduct.__getitem__, counit.__getitem__,
                       antipode.__getitem__, antipode_inv.__getitem__)


def parse_instance(source, field_override=None, hdeg=None, gdeg=None):
    """Parse an instance description from a dict, JSON text, or file path."""
    if isinstance(source, dict):
        data = source
    else:
        text = source
        if "\n" not in str(source) and str(source).endswith(".json"):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"malformed JSON: {exc}", "$") from None
    if not isinstance(data, dict):
        raise InstanceError("an instance must be a JSON object", "$")
    name = data.get("name", "unnamed")
    try:
        field = field_from_name(field_override if field_override is not None
                                else _need(data, "field", "$"))
    except FieldError as exc:
        raise InstanceError(str(exc), "$.field") from None
    budgets_in = data.get("budgets", {})
    if not isinstance(budgets_in, dict):
        raise InstanceError("budgets must be an object", "$.budgets")
    budgets = Budgets(hdeg=_budget(budgets_in, "hdeg", hdeg, 4),
                      gdeg=_budget(budgets_in, "gdeg", gdeg, 6))
    R = _parse_algebra(field, _need(data, "R", "$"), budgets.gdeg, "$.R")
    S = _parse_algebra(field, _need(data, "S", "$"), budgets.gdeg, "$.S")
    tau, action = _parse_twist(field, R, S, _need(data, "twist", "$"), "$.twist")
    tau.name = f"tau({name})"
    pipeline = data.get("pipeline", True)
    if not isinstance(pipeline, bool):
        raise InstanceError("pipeline must be true or false", "$.pipeline")
    return Instance(name, field, R, S, tau, budgets, action=action,
                    description=data.get("description", ""),
                    run_pipeline=pipeline)


BUILTIN_NAMES = (
    "example-5.2",
    "c2-skew",
    "quantum-plane",
    "c2-koszul-kxy",
    "c2-swap-kxy",
    "s3-perm-kxyz",
    "corrupted-twist",
)


def builtin_instance(name, field=None, hdeg=None, gdeg=None):
    """Load a bundled instance by name, optionally overriding field/budgets."""
    if name not in BUILTIN_NAMES:
        raise InstanceError(f"unknown built-in instance {name!r}; "
                            f"available: {', '.join(BUILTIN_NAMES)}")
    ref = resources.files("twistres").joinpath(f"data/instances/{name}.json")
    return parse_instance(ref.read_text(encoding="utf-8"),
                          field_override=field, hdeg=hdeg, gdeg=gdeg)
