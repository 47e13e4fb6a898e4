#!/usr/bin/env python3
"""Walk one generator through the localization-lifting map, verbosely.

Builds B = Z extended by the augmentation ideal X*Z[1/2][X], takes a
generator F(u, v) over the localization B_2 with u a column of a small
elementary matrix and v inside the ideal, and prints the lift degree m,
the lifted columns, the resulting word over B, and the commuting-square
check (localize(phi(word)) against the target transvection).

Usage: python scripts/lift_demo.py [SEED]
"""

import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from steinberg import words as W
from steinberg.matrices import RMatrix, RVector, basis_vector, transvection
from steinberg.rings import Elem, FGIdeal, localization, make_ring
from steinberg.vdk import FSymbol, OrbitVector, linear_system, t_map
from steinberg.words import contragredient, phi


def main():
    try:
        (seed,) = [int(a) for a in sys.argv[1:]] or [0]
    except ValueError:
        print("usage: lift_demo.py [SEED], SEED an integer", file=sys.stderr)
        return 2
    rng = random.Random(seed)
    n = 4
    system = linear_system(n)
    B = make_ring("semi(z,2)")
    a = B.el(2)
    ideal = FGIdeal(B, kind="semi-kernel")
    loc, lam = localization(B, a)

    X = B.gen()
    half = Elem(loc, loc._canon(B.one().payload, 1))
    word_u = (
        W.x_ij(system, loc, 1, 0, lam(X))
        * W.x_ij(system, loc, 2, 0, lam(B.el(rng.randrange(1, 4))) * half)
    )
    ov = OrbitVector.from_word(word_u, n)
    c = X * B.el(rng.randrange(1, 5))
    vloc = (phi(contragredient(word_u)) * basis_vector(loc, n, 1)).scale(lam(c))
    vB = RVector(B, tuple(p[0] for p in vloc.data))

    print("u  =", ov.vec)
    print("v  =", vB)
    res = t_map(B, a, ideal, FSymbol(u=ov, v=vB))
    print("m  =", res.m)
    print("~u =", res.lift_u)
    print("~w =", res.lift_w)
    print("word length:", len(res.word))
    MB = phi(res.word)
    localized = RMatrix(loc, n, tuple(map(lam.p_fn, MB.data)))
    ok = localized == transvection(ov.vec, vloc)
    print("localize(phi(word)) == t(u, v):", ok)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
