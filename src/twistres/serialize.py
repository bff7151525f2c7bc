"""JSON element format shared by the CLI, fixtures, and golden tests.

A pure tensor word is a list of slot objects ``{algebra, word, coeff}``
grouped under a complex name and homological degree; linear combinations
are lists of such.  The term coefficient is the product of the slot
coefficients, and the serializer always carries it on the first slot so
output is byte-stable.
"""

from __future__ import annotations

import json

from .errors import DimensionMismatch, InstanceError, TwistresError
from .tensors import FreeElement


def complex_registry(instance):
    """Named complexes available for element IO on an instance."""
    out = dict(instance.complexes())
    if instance.action is not None:
        try:
            X = instance.koszul_smash_complex()
        except InstanceError:
            return out
        X.io_name = "koszul_smash"
        out["koszul_smash"] = X
    return out


def element_to_json(X, n, elt):
    """Serialize a FreeElement of X.term(n) deterministically."""
    terms = []
    for (comp, word), coeff in elt.items_sorted():
        sig = X.term(n).signature(comp)
        slots = []
        for k, (slot, w) in enumerate(zip(sig.slots, word)):
            entry = {"algebra": slot.label(), "word": slot.format(w)}
            if k == 0:
                entry["coeff"] = X.A.field.format(coeff)
            slots.append(entry)
        term = {"slots": slots}
        if comp != ():
            term["component"] = list(comp)
        terms.append(term)
    return {"complex": getattr(X, "io_name", X.name), "degree": n,
            "element": terms}


def parse_element(instance, data, complexes=None):
    """Parse an element description; returns (complex_name, n, FreeElement)."""
    if isinstance(data, str):
        text = data
        if "\n" not in data and data.endswith(".json"):
            with open(data, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"malformed JSON: {exc}", "$") from None
    if not isinstance(data, dict):
        raise InstanceError("element description must be an object", "$")
    registry = complexes if complexes is not None else complex_registry(instance)
    cname = data.get("complex")
    if not isinstance(cname, str) or cname not in registry:
        raise InstanceError(
            f"unknown complex {cname!r}; available: {', '.join(sorted(registry))}",
            "$.complex")
    X = registry[cname]
    n = data.get("degree")
    # type(n) rather than isinstance: a JSON true is not the degree 1
    if type(n) is not int or not 0 <= n <= X.n_max:
        raise InstanceError(
            f"homological degree must be an integer in 0..{X.n_max}, "
            f"got {json.dumps(n)}",
            "$.degree")
    term = X.term(n)
    field = instance.field
    out = FreeElement(term)
    entries = data.get("element", [])
    if not isinstance(entries, list):
        raise InstanceError("element must be a list of terms", "$.element")
    for t, entry in enumerate(entries):
        loc = f"$.element[{t}]"
        if not isinstance(entry, dict):
            raise InstanceError("term must be an object", loc)
        comp = entry.get("component", [])
        if not isinstance(comp, list):
            raise InstanceError("component must be a list", f"{loc}.component")
        comp = tuple(comp)
        try:
            sig = term.signature(comp)
        except DimensionMismatch:
            raise InstanceError(f"no component {comp} in degree {n} of {cname}",
                                f"{loc}.component") from None
        slots_in = entry.get("slots", [])
        if not isinstance(slots_in, list):
            raise InstanceError("slots must be a list", f"{loc}.slots")
        if len(slots_in) != len(sig.slots):
            raise InstanceError(
                f"expected {len(sig.slots)} slots, got {len(slots_in)}",
                f"{loc}.slots")
        coeff = field.one
        word = []
        for k, (slot, slot_in) in enumerate(zip(sig.slots, slots_in)):
            sloc = f"{loc}.slots[{k}]"
            if not isinstance(slot_in, dict):
                raise InstanceError("slot must be an object", sloc)
            label = slot_in.get("algebra")
            if label is not None and label != slot.label():
                raise InstanceError(
                    f"slot algebra {label!r} does not match {slot.label()!r}",
                    f"{sloc}.algebra")
            text = slot_in.get("word")
            if not isinstance(text, str):
                raise InstanceError("missing word or not a string", f"{sloc}.word")
            try:
                w = slot.parse(text)
            except (TwistresError, ValueError) as exc:
                raise InstanceError(str(exc), f"{sloc}.word") from None
            if not slot.contains(w):
                raise InstanceError(
                    f"word {text!r} not allowed in this slot "
                    "(reduced slots exclude the unit)", f"{sloc}.word")
            word.append(w)
            if "coeff" in slot_in:
                text = slot_in["coeff"]
                if not isinstance(text, str):
                    raise InstanceError(
                        f"coefficient must be a string, got {json.dumps(text)}",
                        f"{sloc}.coeff")
                try:
                    coeff = coeff * field.parse(text)
                except (TwistresError, ValueError, ZeroDivisionError) as exc:
                    raise InstanceError(str(exc), f"{sloc}.coeff") from None
        out.add_term(comp, tuple(word), coeff)
    return cname, n, out


def json_text(data):
    """Canonical JSON rendering (sorted keys, stable separators)."""
    return json.dumps(data, indent=2, sort_keys=True)
