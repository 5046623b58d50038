#!/usr/bin/env python3
"""The headline computation: first-difference limits of the bundled model.

Walks the whole pipeline: expand the cubic and canonical-pairing
polynomials from the intersection table, evaluate the multiplicity, derive
the two Beatty-class limits symbolically, run the Cesaro oracle on both the
derived and the reference values, and confirm against an exact scan.  The
punchline is a genuine discrepancy: the reference sigma=1 closed form fails
the oracle that the derived one passes, and the derived limits for the two
classes coincide exactly, so the n^2-normalized first difference of this
model converges after all.
"""

from divfilt.asymptotics import (
    REFERENCE_SIGMA_LIMITS,
    cesaro_consistency,
    empirical_scan,
    example_model,
    limit_exists_report,
    model_length,
    multiplicity,
    subsequence_limit,
)

model = example_model()
print("cubic growth polynomial   p3 =", model.p3)
print("canonical pairing         p2 =", model.p2)
print()

print("model lengths:", [str(model_length(model, n)) for n in range(6)])
cubic, scaled = multiplicity(model)
print("cubic limit p3(a,1)  =", cubic, "~", cubic.to_decimal(8))
print("multiplicity 6*p3    =", scaled, "~", scaled.to_decimal(8))
print()

L0 = subsequence_limit(model, 0)
L1 = subsequence_limit(model, 1)
ref1 = REFERENCE_SIGMA_LIMITS[1]
print("derived limit, sigma=0  :", L0, "~", L0.to_decimal(8))
print("derived limit, sigma=1  :", L1, "~", L1.to_decimal(8))
print("reference sigma=1 value :", ref1, "~", ref1.to_decimal(8))
print("derived limits equal?   :", L0 == L1)
print()

derived = cesaro_consistency(model, L0, L1)
reference = cesaro_consistency(model, L0, ref1)
print("Cesaro oracle, derived pair  :", "PASS" if derived.passed else "FAIL",
      f"(lhs ~ {derived.lhs.to_decimal(6)}, rhs ~ {derived.rhs.to_decimal(6)})")
print("Cesaro oracle, reference pair:", "PASS" if reference.passed else "FAIL",
      f"(lhs ~ {reference.lhs.to_decimal(6)}, rhs ~ {reference.rhs.to_decimal(6)})")
print()

scan = empirical_scan(model, 50_000, sample_stride=5000)
print(f"scan to 5e4: telescoping exact = {scan.telescoping_ok}")
for s in (0, 1):
    st = scan.per_sigma[s]
    print(f"  sigma={s}: last ratio at n={st.last_n} ~ "
          f"{float(st.last_ratio):.6f} (derived limit ~ {L0.to_decimal(6)})")
bound = scan.remainder_bound
print(f"  n*|delta(n)/n^2 - L_sigma| <= {bound} ~ {bound.to_decimal(6)} for every n >= 1")
print()

print("assembled audit flags:")
for flag in limit_exists_report(model).audit_flags:
    print("  -", flag)
