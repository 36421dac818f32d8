"""Static two-spin phase gate at the reference operating point.

Two spin-1/2 qubits 1.14 nm apart sit in a 0.1 T bias field plus a small
gradient (+/- 60.8 uT) that makes the two spins individually addressable.
The dipole-dipole coupling alone drives the composite phase

    theta(t) = arg c1 - arg c2 - arg c3 + arg c4

linearly toward -pi; the first crossing is the conditional-phase gate time.
"""

import numpy as np

from buckygate import SimulationConfig, run_simulation

config = SimulationConfig(
    r=1.14e-9,
    Bz1=0.1,
    Bz2=0.1,
    Bg1=6.08e-5,
    Bg2=-6.08e-5,
    t_max=1.2e-8,
)

result = run_simulation(config)
gate = result.gate

resonances = result.config.resonances
print(f"resonances        : {resonances.omega1:.4e}, {resonances.omega2:.4e} rad/s")
print(f"gate time tau     : {gate.tau * 1e9:.4f} ns")
print(f"theta(tau)        : {gate.theta_at_tau:+.8f} rad (target -pi)")
print(f"concurrence C(tau): {gate.concurrence_at_tau:.4f}")
print(f"E(C) at tau       : {gate.eof_at_tau:.4f}")
print(f"ops before T2     : {gate.ops_budget}")
print(f"corrections       : s1_0={gate.correction_phases[0]:+.4f}, "
      f"s1_1={gate.correction_phases[1]:+.4f}, "
      f"s2_0={gate.correction_phases[2]:+.4f}, "
      f"s2_1={gate.correction_phases[3]:+.4f} rad")

# theta(t) is linear to a very good approximation; show the fitted slope
# against the -6 g prediction of the block-diagonal model.
times = result.trajectory.times
mask = times <= gate.tau
slope = np.polyfit(times[mask], result.theta[mask], 1)[0]
print(f"\ntheta slope       : {slope:.4e} rad/s (pi/tau = {np.pi / gate.tau:.4e})")
