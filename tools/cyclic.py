"""The reduced grevlex basis of the cyclic-n ideal, timed.

    python3 tools/cyclic.py N

The cyclic-n ideal of Q[x0..x(N-1)] is generated by the N - 1 cyclic sums
sum_i x_i * x_(i+1) * ... * x_(i+k-1) (indices mod N), k = 1..N-1, and
x0 * x1 * ... * x(N-1) - 1.  Prints one line

    cyclic-N: B elements, sha256 DIGEST, S.SSS s

where B is the size of the reduced basis, DIGEST the sha256 of its
elements printed one a line in basis order (sorted descending by lead
term), and S.SSS the wall time of the basis in seconds.  The basis is
unique, so the digest names the answer; the time depends on the machine.
"""

import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from residua.groebner import Ideal  # noqa: E402
from residua.polyring import PolynomialRing  # noqa: E402


def cyclic(n):
    """(ring, generators) of the cyclic-n ideal."""
    ring = PolynomialRing(tuple(f"x{i}" for i in range(n)))
    xs = ring.gens()
    gens = []
    for k in range(1, n):
        total = ring.zero()
        for i in range(n):
            term = ring.one()
            for j in range(k):
                term = term * xs[(i + j) % n]
            total = total + term
        gens.append(total)
    prod = ring.one()
    for x in xs:
        prod = prod * x
    gens.append(prod - ring.one())
    return ring, gens


def main(argv):
    if len(argv) != 1 or not argv[0].isdigit() or int(argv[0]) < 2:
        raise SystemExit("usage: tools/cyclic.py N  (N >= 2)")
    n = int(argv[0])
    ring, gens = cyclic(n)
    start = time.perf_counter()
    basis = Ideal(ring, gens).groebner()
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256("\n".join(map(str, basis)).encode()).hexdigest()
    print(f"cyclic-{n}: {len(basis)} elements, sha256 {digest}, {elapsed:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
