"""Convention scan for acceptance criterion 01 (Si:Bi, ``tailored-9/2``, 1 T).

    python3 docs/convention_scan.py

Run from anywhere; the package is imported from the checkout's ``src``.  The
criterion pins the branch angles (0.0085, 0.0042) rad, which this model's root
(-0.0024, +0.0018) misses.  The scan asks whether another sign or manifold
convention, another g_n value, or another pair of the four diag conditions
puts a root there.  It varies, each against the others:

- |g_n| = 6.841 MHz/T (the preset) and 6.962 MHz/T, each with either sign;
- the sign of the hyperfine constant A = +-1475.4 MHz;
- the manifold that holds the words, m_S = -1/2 (the model's) or +1/2, set
  through ``spin.MANIFOLD_M_S`` with ``tailor._field_setup``'s cache cleared;
- every pair of ``diag-IZ``, ``diag-IXIX``, ``diag-IYIY`` and ``diag-IZIZ``
  closed together by :func:`spinqec.tailor.closed_form_roots` in the default
  box.

Each line gives a variant's root nearest the origin, or its refusal, the
distance from that root to (0.0085, 0.0042), and the least such distance over
every root in the box.  Nothing in ``src/`` is edited; the manifold is reset
on exit.
"""

import itertools
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spinqec import spin, tailor  # noqa: E402
from spinqec.linalg import NumericalError, PreconditionError  # noqa: E402

REF_EPS = (0.0085, 0.0042)
B_FIELD = 1.0
G_N = (6.841, 6.962)
DIAG = [name for name, (kind, _, _) in tailor.CONDITIONS.items() if kind == "diag"]


def scan():
    preset = spin.get_system("si-bi")
    for m_s in (-0.5, 0.5):
        spin.MANIFOLD_M_S = m_s
        tailor._field_setup.cache_clear()
        for g_n, sign_n, sign_a in itertools.product(G_N, (1.0, -1.0), (1.0, -1.0)):
            system = spin.SpinSystem("si-bi-variant", preset.s, preset.i, preset.g_e,
                                     sign_n * g_n, sign_a * preset.a)
            for names in itertools.combinations(DIAG, 2):
                head = (f"m_S {m_s:+.1f}  g_n {sign_n * g_n:+.3f}  A {sign_a * preset.a:+.1f}  "
                        f"{names[0]:9s} {names[1]:9s}")
                try:
                    problem = tailor.TailoringProblem("tailored-9/2", system, B_FIELD)
                    roots = tailor.closed_form_roots(problem, names)
                except (NumericalError, PreconditionError) as exc:
                    yield f"{head}  refused: {type(exc).__name__}"
                    continue
                if not roots:
                    yield f"{head}  no root in the box"
                    continue
                far = [math.dist(root, REF_EPS) for root in roots]
                yield (f"{head}  root ({roots[0][0]:+.6f}, {roots[0][1]:+.6f})  "
                       f"distance {far[0]:.6f}  least {min(far):.6f} over {len(roots)}")


def main():
    try:
        for line in scan():
            print(line)
    finally:
        spin.MANIFOLD_M_S = -0.5
        tailor._field_setup.cache_clear()


if __name__ == "__main__":
    main()
