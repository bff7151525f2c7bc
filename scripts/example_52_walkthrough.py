#!/usr/bin/env python3
"""Walk through the running enveloping-algebra example step by step.

Builds A = k[x] (x)_tau k[y] with tau(y (x) x) = x (x) y + x (x) 1 (so that
yx = xy + x), then prints the twisting values, the unshuffle of
a = 1 (x) y^2 (x) x (x) x (x) 1, and the round trip a -> b -> c through the
twisted Alexander-Whitney and Eilenberg-Zilber maps.  Exits 1 when
AW o EZ = 1 fails on b or EZ o AW = 1 holds on a, as it must not here.

Run: PYTHONPATH=src python scripts/example_52_walkthrough.py
"""

import sys

from twistres.instances import builtin_instance


def main():
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()
    R, S, tau = inst.R, inst.S, inst.tau
    print(f"instance: {inst.name} over {inst.field.name}")
    print(f"algebra:  A = {inst.A.name} with yx = xy + x")
    print()

    def show_pairs(pairs):
        return "  +  ".join(
            f"{c} * {R.format_word(r)} (x) {S.format_word(s)}"
            for (r, s), c in sorted(pairs.items()))

    y, y2, x, x2 = (1,), (2,), (1,), (2,)
    print("twisting values:")
    print(f"  tau(y (x) x)    = {show_pairs(tau.apply(y, x))}")
    print(f"  tau(y (x) x^2)  = {show_pairs(tau.apply(y, x2))}")
    print(f"  tau(y^2 (x) x)  = {show_pairs(tau.apply(y2, x))}")
    print(f"  tau^-1(x (x) y) = "
          + "  +  ".join(f"{c} * {S.format_word(s)} (x) {R.format_word(r)}"
                         for (s, r), c in sorted(tau.inverse(x, y).items())))
    print()

    u = (0,)
    a = maps.rbar_A.single(3, (), ((u, u), (u, y2), (x, u), (x, u), (u, u)))
    print("a  =", a)
    unshuffled = maps.twisted_unshuffle.apply(3, a)
    print()
    print("unshuffle(a) =")
    for (comp, word), c in unshuffled.items_sorted():
        print(f"   {c} * {maps.Y.term(3).format(comp, word)}")
    b = maps.aw_reduced.apply(3, a)
    print()
    print("b = AW(a) =")
    for (comp, word), c in b.items_sorted():
        print(f"   {c} * {maps.prod_rbar.term(3).format(comp, word)}")
    c_elt = maps.ez_reduced.apply(3, b)
    print()
    print("c = EZ(b) =")
    for (comp, word), coeff in c_elt.items_sorted():
        print(f"   {coeff} * {maps.rbar_A.term(3).format(comp, word)}")
    print()
    round_trip = maps.aw_reduced.apply(3, c_elt) == b
    back = c_elt == a
    print("AW(EZ(b)) == b:    ", round_trip)
    print("EZ(AW(a)) == a:    ", back, "   (and must be False)")
    return 0 if round_trip and not back else 1


if __name__ == "__main__":
    sys.exit(main())
