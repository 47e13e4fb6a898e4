#!/usr/bin/env python3
"""Cut out the kernel of phi: St(Phi, R) -> E(Phi, R) from the U+ coset table.

Usage: python scripts/compute_k2.py [SYSTEM RING]...

With no arguments runs the stock desk instances.  The z/4 instances are the
interesting ones: the kernel has order 2, and the run tests its
centrality against every generator; that it is generated by the class of
the symbol {-1,-1} is not checked.  Over A3 this is the paper's claim
where it has content (about 50 s and 450 MB).  The image order is
checked by a BFS under the cap and past it by the order of the simply
connected group over the local factors of the ring (route sc-formula,
|SL(4, Z/4)| over A3).  Type D is refused unless x^2 = 1 has the one
root x = 1 in the ring, so over the reduced rings of characteristic 2:
the kernel of the vector realization then holds only K2.  A row whose
enumeration passes its cap is reported inconclusive.

    python scripts/compute_k2.py A2 f2 A3 f2 A2 z/4
    python scripts/compute_k2.py A3 z/4
"""

import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from steinberg.fp import k2_compute
from steinberg.matrices import Inconclusive
from steinberg.rings import RingError, UnsupportedRingError, make_ring
from steinberg.roots import NoMatrixRealization, RootSystemError, build_system


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
        try:
            rep = k2_compute(datum, ring)
        except (UnsupportedRingError, NoMatrixRealization) as exc:
            print(f"{sysname} over {ringspec}: unsupported: {exc}")
            continue
        except Inconclusive as exc:
            print(f"{sysname} over {ringspec}: inconclusive: {exc}")
            continue
        dt = time.perf_counter() - t0
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"{sysname} over {ringspec}: [St:U+] = {rep.st_order // rep.uplus_order}, "
            f"|U+_E| = {rep.uplus_order}, |St| = {rep.st_order} = "
            f"{rep.kernel_order} x {rep.image_order} "
            f"(image by {rep.image_route}: {rep.bfs_image_order}), "
            f"kernel central: {rep.central}, {len(rep.witnesses)} witnesses  "
            f"[{dt:.1f}s, peak RSS {rss:.0f} MB]"
        )
        if rep.witnesses:
            print("  NON-CENTRAL WITNESSES:", rep.witnesses[:5])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
