"""Gate time versus inter-qubit distance.

The dipole coupling falls off as 1/r^3, so the conditional-phase gate time
tau = pi / (6 g) grows as r^3.  This sweep confirms the cubic scaling and
shows the corresponding operations budget within a 20 us coherence time.
"""

import numpy as np

from buckygate import SimulationConfig, dipole_coupling, run_simulation

distances = np.array([0.9e-9, 1.0e-9, 1.14e-9, 1.3e-9, 1.5e-9])

print("r (nm)   g (rad/s)     tau (ns)   tau*g/pi   C(tau)   ops")
taus = []
for r in distances:
    config = SimulationConfig(
        r=r, Bz1=0.1, Bz2=0.1, Bg1=6.08e-5, Bg2=-6.08e-5, t_max=6e-8
    )
    result = run_simulation(config)
    g = dipole_coupling(r)
    taus.append(result.gate.tau)
    print(f"{r * 1e9:5.2f}  {g:.4e}  {result.gate.tau * 1e9:9.4f}  "
          f"{result.gate.tau * g / np.pi:8.4f}  "
          f"{result.gate.concurrence_at_tau:6.4f}  {result.gate.ops_budget:5d}")

# cubic fit in log-log: slope should be very close to 3
slope = np.polyfit(np.log(distances), np.log(taus), 1)[0]
print(f"\nlog-log slope of tau(r): {slope:.4f} (dipole coupling predicts 3)")
