#!/usr/bin/env python3
"""The smallest interesting model: two slots coupled by a swap.

Starting from the orthogonal pair (1,0), (0,1), the second-order update
psi_{n+1} = psi_{n-1} - i H psi_n keeps every state on a single slot while
the scalar factor in front walks through 1, 1-i, -i, ...; the configuration
only repeats once those factors cancel.
"""

from hamca import GaussVector, build_hamiltonian, evolve, find_period, classify_state, make_cyclic_model

H = build_hamiltonian(make_cyclic_model(2))
psi0 = GaussVector.of(1, 0)
psi1 = GaussVector.of(0, 1)

traj = evolve(psi0, psi1, H, 12)
print("state sequence (slot, factor):")
for n, psi in enumerate(traj):
    k, phase = classify_state(psi)
    print(f"  n={n:2d}  psi = {str(psi):14s}  -> slot {k}, factor {phase}")

rep = find_period(psi0, psi1, H, 100)
print(f"\nminimal period of the pair: {rep.period}")
print(f"all states single-component: {rep.ontological}")
print(f"conserved link total L:      {rep.link_number}")
print("\nNote the factors 1-i and -1-i: the 'norm' of these states breathes")
print("while the two-time correlation q1 (checked in demo 03) stays fixed.")
