"""Four-photon entanglement from two qubit pair sources.

Two polarization-entangled pairs interfere on a polarizing beam splitter;
keeping only the events with one photon in each exit arm collapses the
product state onto the two all-matching branches, i.e. a four-photon GHZ
state at probability 1/2.  The same works in path encoding, and chaining
more sources extends the state two photons at a time.
"""

import math

import ghzforge as gf
from ghzforge import golden

# --- polarization picture ---------------------------------------------------

print("input: two pair sources, photons 0-3")
joint = golden.qubit_polarization_input()
print(joint.pretty())

out, trace = gf.run_circuit(joint, golden.qubit_polarization_circuit())
print("\nafter the beam splitter and the coincidence requirement:")
print(out.pretty())
print(f"kept probability: {trace[0]:.4f}")

normalized = gf.normalize(out)
target = gf.make_state(
    [
        (gf.ket((0, "H"), (1, "H"), (2, "H"), (3, "H")), 1 / math.sqrt(2)),
        (gf.ket((0, "V"), (1, "V"), (2, "V"), (3, "V")), 1 / math.sqrt(2)),
    ]
)
print(f"fidelity vs the four-photon target: {gf.fidelity(normalized, target):.9f}")

# --- path picture, longer chains ---------------------------------------------

print("\nchaining sources in path encoding:")
for n in (4, 6, 8):
    report = gf.run(2, n, backend="rule")
    print(
        f"  n={n}: probability {report.prob:.4f} "
        f"(predicted {report.predicted_prob:.4f}), fidelity {report.fidelity:.9f}"
    )
