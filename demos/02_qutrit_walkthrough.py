"""Stage-by-stage walkthrough of the four-photon, three-level preparation.

The element backend simulates the literal optics: parity tagging, the
junction PBS bank, the helper-pair interference block, the diagonal-basis
rotation of the helper arms and the final pair projection.  Each entry of
``report.intermediates`` is a pair: the normalised state after that stage
and the probability of reaching it.  The states are printed scaled by the
square root of that probability, so the amplitudes match the unnormalized
bookkeeping used when deriving the protocol by hand.
"""

import math

import ghzforge as gf
from ghzforge import states

plan = gf.compile_plan(gf.ProtocolOptions(d=3, n=4, feedforward=False))
report = gf.execute(plan, backend="element", keep_intermediates=True)

checkpoints = [
    ("sources", "product of two qutrit pair sources"),
    ("j0.step_i", "after the junction PBS filter (5 survivors, rate 5/9)"),
    ("j0.aux0.inject", "helper pair injected on the (0,2) stage"),
    ("j0.aux0.interfere", "after helper interference coincidence (rate 3/10)"),
    ("j0.aux0.analysis", "helper arms merged + rotated, ready to project"),
    ("j0.aux0.untag", "kept pair outcomes merged, tags removed"),
]

for label, blurb in checkpoints:
    state, p = report.intermediates[label]
    state = states.scaled(state, math.sqrt(p))
    print(f"== {label}: {blurb}")
    print(state.pretty())
    print()

print("stage probabilities:", [round(p, 6) for p in report.trace])
print(f"probability keeping HH/VV only: {report.prob_filtered:.6f}  (= 1/12)")
print(f"probability with feedforward:   {report.prob_feedforward:.6f}  (= 1/6)")
print(f"fidelity vs the GHZ target:     {report.fidelity:.12f}")
