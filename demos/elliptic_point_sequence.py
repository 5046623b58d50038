#!/usr/bin/env python3
"""The moving point q_n = p + [n](q - p) on y^2 = x^3 - 2 over Q.

Because q - p has infinite order, the q_n are pairwise distinct and never
return to q; each level's restriction bookkeeping closes to the trivial
divisor class.  A 2-torsion counterexample shows what failure looks like
and that every detected collision is re-certified as a torsion relation.
"""

from fractions import Fraction as F

from divfilt.picard import (
    O,
    CurvePoint,
    EllipticCurve,
    class_of,
    default_curve,
    exceptional_pairing_holds,
    infinite_order_witness,
    qn_sequence,
    restriction_report,
)

E, p, q = default_curve()
print("curve:", E, " p = O, q =", q)

witness = infinite_order_witness(E, E.sub(q, p))
print("infinite-order witness (bound 12): passed =", witness.passed,
      " certified =", witness.certified_infinite)
print()

rep = qn_sequence(E, p, q, 8)
print("first q_n (heights grow quadratically):")
for n, pt in enumerate(rep.points, start=1):
    print(f"  q_{n} = {pt}")
long = qn_sequence(E, p, q, 200)
print(f"n <= 200: all distinct = {long.all_distinct}, returns to q = {long.q_hits[1:] or 'none'}")
print()

print("restriction classes (must all be trivial):")
for n in (1, 5, 25, 50):
    cls = restriction_report(E, p, q, n).assembled
    print(f"  n={n:>2}: degree={cls.degree} point={cls.point}  trivial={cls.is_trivial}")
# the same divisor n q + (1 - n) p without the exceptional term -q_n
perturbed = class_of(E, [(q, 5), (p, -4)])
print(f"  n= 5 without the exceptional term: degree={perturbed.degree}  (load-bearing!)")
detail = restriction_report(E, p, q, 50)
print(f"  coherence: trivial at n=50 = {detail.trivial}  "
      f"exceptional pairing at q_50 = {exceptional_pairing_holds(E, p, detail.qn)}")
print()

# what failure looks like: a 2-torsion step point on y^2 = x^3 - x
Et = EllipticCurve(F(-1), F(0))
t = CurvePoint(F(0), F(0))
bad = qn_sequence(Et, O, t, 8)
print("2-torsion counterexample on y^2 = x^3 - x with q = (0,0):")
print("  points:", [str(pt) for pt in bad.points])
print("  collisions:", bad.collisions, " certified as torsion:", bad.collisions_certified)
