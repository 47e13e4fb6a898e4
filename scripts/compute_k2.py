#!/usr/bin/env python3
"""Enumerate small Steinberg groups and cut out the kernel of phi.

Usage: python scripts/compute_k2.py [SYSTEM RING]...

With no arguments runs the stock desk instances.  The z/4 instance is the
interesting one: the kernel is the order-2 group generated by the class of
the symbol {-1,-1}, and the run confirms its centrality exhaustively.

    python scripts/compute_k2.py A2 f2 A3 f2 A2 z/4
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from steinberg.fp import k2_compute
from steinberg.rings import RingError, make_ring
from steinberg.roots import RootSystemError, build_system


def main():
    args = sys.argv[1:]
    if len(args) % 2:
        print("compute_k2.py: error: need SYSTEM RING pairs", file=sys.stderr)
        return 2
    pairs = list(zip(args[::2], args[1::2])) or [("A2", "f2"), ("A3", "f2"), ("A2", "z/4")]
    try:
        built = [(build_system(s), make_ring(r)) for s, r in pairs]
    except (RingError, RootSystemError) as exc:
        print(f"compute_k2.py: error: {exc}", file=sys.stderr)
        return 2
    for (sysname, ringspec), (datum, ring) in zip(pairs, built):
        t0 = time.perf_counter()
        rep = k2_compute(datum, ring)
        dt = time.perf_counter() - t0
        print(
            f"{sysname} over {ringspec}: |St| = {rep.st_order} = "
            f"{rep.kernel_order} x {rep.image_order} "
            f"(image confirmed by BFS: {rep.bfs_image_order}), "
            f"kernel central: {rep.central}  [{dt:.1f}s]"
        )
        if rep.witnesses:
            print("  NON-CENTRAL WITNESSES:", rep.witnesses[:5])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
