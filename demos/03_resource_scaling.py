"""How sources, helper pairs and success probability scale with (d, n).

The helper-pair count per junction is the number of same-parity path pairs,
ceil(d(d-2)/4); the whole chain needs one junction per added source.  The
success probability with feedforward is 1/d**(ceil(n/2)-1) / 2**N.  The rule
backend re-derives every number by simulation so the table doubles as a
consistency check.
"""

import ghzforge as gf
from ghzforge import analysis

print(f"{'d':>2} {'n':>2} {'sources':>7} {'helpers':>7} "
      f"{'filter rate':>11} {'predicted':>12} {'simulated':>12} {'fidelity':>10}")
for d in (2, 3, 4, 5):
    for n in (4, 6, 8):
        predicted = float(analysis.predicted_prob_for_options(d, n, True))
        report = gf.run(d, n, feedforward=True, backend="rule")
        print(
            f"{d:>2} {n:>2} {-(n // -2):>7} {gf.aux_count(d, n):>7} "
            f"{float(analysis.eta1_exact(d)):>11.4f} {predicted:>12.3e} "
            f"{report.prob:>12.3e} {report.fidelity:>10.6f}"
        )

print("\nper-stage survival rates for d=5 (paper-style accounting):")
rates = [float(analysis.eta2_exact(5, k)) for k in range(1, gf.aux_count(5, 4) + 1)]
eta1 = float(analysis.eta1_exact(5))
print("  parity filter:", eta1)
print("  helper stages:", [round(r, 4) for r in rates])
product = eta1
for r in rates:
    product *= r
closed_form = float(analysis.predicted_prob_for_options(5, 4, True))
print(f"  product: {product:.6f}  vs closed form {closed_form:.6f}")
