#!/usr/bin/env python3
"""Orbit periods of the cyclic m-state family.

For every neighbouring basis pair (e_k, e_{k+1}) the evolution permutes
single-slot states around the ring, picking up factors from {1, -1, i, -i},
and first reproduces the initial pair after exactly 4m updates.  The m = 2
model is the documented exception: its measured period is 12, not 8, and
its factors leave the unit set (see demo 01).
"""

from hamca import build_hamiltonian, make_cyclic_model, scan_ontological_pairs

for m in (2, 3, 4, 5, 6, 8):
    reports = scan_ontological_pairs(build_hamiltonian(make_cyclic_model(m)))
    print(f"m = {m} (expected period 4m = {4 * m}):")
    for rep in reports:
        phases = sorted({str(v.phase) for v in rep.visits})
        flag = "" if rep.matches_expected else "  <-- differs from 4m"
        print(
            f"  pair (e{rep.pair_index}, e{rep.pair_index + 1}): period {rep.period}, "
            f"ontological={rep.ontological}, L={rep.link_number}, factors {phases}{flag}"
        )
    print()

print("Repeated-state starts behave differently: superpositions form at once.")
H = build_hamiltonian(make_cyclic_model(4))
from hamca import basis_state, find_period

rep = find_period(basis_state(4, 1), basis_state(4, 1), H, 64)
print(f"pair (e1, e1): ontological={rep.ontological}, L={rep.link_number} "
      f"(a 'template' start: L > 0)")
