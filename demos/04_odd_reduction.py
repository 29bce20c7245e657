"""Turning an even-photon GHZ state into an odd one.

Measuring one photon's path qudit in the Fourier basis leaves the remaining
photons GHZ-entangled up to outcome-dependent phases.  Keeping only the
uniform-superposition outcome succeeds with probability 1/d; correcting each
outcome with conjugate phases on one remaining photon makes every branch
usable, so the reduction becomes deterministic.
"""

import ghzforge as gf
from ghzforge import measurement, protocol

D = 3
even = gf.run(D, 4, feedforward=True, backend="rule")
print(f"input: simulated {4}-photon {D}-level GHZ state "
      f"(fidelity {even.fidelity:.9f})")

groups = [[p * D + i for i in range(D)] for p in range(4)]
dist = gf.fourier_measure_path(even.final_state, groups[0])
rule = measurement.fourier_feedforward_rule(groups[1])
reference = gf.ghz_reference(D, 3, groups[1:])

print("\nper-outcome branches:")
for label, outcome in dist.items():
    corrected = gf.feedforward(outcome.state, label, rule)
    fid_raw = gf.fidelity(outcome.state, reference)
    fid_fixed = gf.fidelity(corrected, reference)
    print(
        f"  outcome {label}: p={outcome.prob:.6f}  "
        f"fidelity before correction {fid_raw:.6f}, after {fid_fixed:.9f}"
    )

single = gf.reduce_to_odd(even.final_state, D, protocol.SINGLE_OUTCOME)
full = gf.reduce_to_odd(even.final_state, D, protocol.FULL_FOURIER)
print(f"\nsingle-outcome reduction: probability {single.prob:.6f} (= 1/{D})")
print(f"full Fourier + feedforward: probability {full.prob:.6f}")
print(f"odd-photon output fidelity: {full.fidelity:.12f}")
print("\nfinal three-photon state:")
print(full.final_state.pretty())
