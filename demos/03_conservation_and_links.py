#!/usr/bin/env python3
"""Exact conservation laws and the link-counting picture.

Any matrix G commuting with H yields a conserved two-time correlation q_G.
With G = identity, q1/2 equals the total link number L: the integer
pairing of consecutive coordinates and momenta that replaces the conserved
norm.  Everything below is integer-exact at any amplitude size; the final
section runs amplitudes far past 64-bit range and steps back to the start.
"""

from hamca import (
    GaussMatrix,
    GaussVector,
    evolve,
    link_counts,
    make_cyclic_model,
    build_hamiltonian,
    q1,
    step_backward,
    step_forward,
)
from hamca.conservation import verify_stream
from hamca.models import HamiltonianSpec

spec = make_cyclic_model(4)
H = build_hamiltonian(spec)
psi0 = GaussVector.of((3, -1), (0, 2), 1, (2, 2))
psi1 = GaussVector.of(1, (1, 1), (4, 0), (0, -3))

traj = evolve(psi0, psi1, H, 2000)
report = verify_stream(traj, H, H)
print(f"q_H over 2001 pairs: constant = {report.q_value} (ok={report.ok})")
report1 = verify_stream(traj, H, GaussMatrix.identity(4))
print(f"q_1 over 2001 pairs: constant = {report1.q_value}")

print("\nlink counts for the first few pairs (L_a can be negative):")
for n, (a, b) in enumerate(zip(traj[:4], traj[1:])):
    rep = link_counts(a, b)
    weights = rep.reduced_weights()
    ws = [str(num) if den == 1 else f"{num}/{den}" for num, den in weights] if weights else ["-"]
    print(f"  n={n}: L_a = {rep.per_alpha}, L = {rep.total}, weights = {ws}")
    assert 2 * rep.total == q1(a, b)

print("\namplitude growth and exact reversal on a stiff model:")
big = HamiltonianSpec(
    dim=3,
    S=((2, -3, 1), (-3, 0, 3), (1, 3, -2)),
    A=((0, 2, -3), (-2, 0, 1), (3, -1, 0)),
)
Hbig = build_hamiltonian(big)
a, b = GaussVector.of(1, (0, 1), -2), GaussVector.of((1, 1), 0, 3)
start = (a, b)
for _ in range(120):
    a, b = b, step_forward(a, b, Hbig)
digits = max(len(str(abs(c.re))) for c in b)
print(f"  after 120 steps the largest coordinate has {digits} digits")
for _ in range(120):
    a, b = step_backward(a, b, Hbig), a
print(f"  reversed exactly back to the start: {(a, b) == start}")
