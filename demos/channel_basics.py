"""Walk through the channel layer: path gain, link states, spectral efficiency.

Run with `python demos/channel_basics.py`.
"""

import numpy as np

from uavirs import (
    LinkRuleSet,
    LinkState,
    LinkStateRule,
    PathLossModel,
    RadioParams,
    leg_amplitude,
    link_rate,
    path_gain,
    resolve_link_state,
)

radio = RadioParams(tx_power=0.1, noise_power=1e-11, ref_path_gain_db=-30.0)

# Large-scale gain falls off as g0 * d**-alpha. The three exponents below are
# the link classes of the data-collection experiment: UAV-sensor (2.6),
# UAV-surface (2.4) and surface-sensor (2.2).
print("path gain vs distance")
distances = np.array([1.0, 10.0, 30.0, 100.0, 300.0])
for exponent in (2.6, 2.4, 2.2):
    gains = path_gain(distances, PathLossModel(exponent), radio)
    row = "  ".join(f"{g:9.2e}" for g in gains)
    print(f"  alpha={exponent}:  {row}")
print(f"  (distances: {distances.tolist()} m)\n")

# A binary link-state rule: LoS above the altitude threshold, the declared
# fallback below it. The relaying scenario uses thresholds of 30 m and 50 m.
# A scenario's rules form a LinkRuleSet; a pair without a rule is always LoS.
rules = LinkRuleSet([LinkStateRule(("uirs", "user2"), min_altitude_for_los=50.0,
                                   fallback_state=LinkState.NLOS)])
print("link state of the aerial-surface/user-2 pair vs altitude")
for altitude in (20.0, 49.9, 50.0, 80.0):
    state = resolve_link_state(rules, "uirs", "user2", altitude)
    print(f"  altitude {altitude:5.1f} m -> {state.value}")
print()

# Spectral efficiency with TDMA airtime sharing: a link's rate comes from its
# amplitude gain, the square root of the path gain.
print("rate for a node at 60 m, as a function of its airtime share")
rate = link_rate(leg_amplitude(60.0, PathLossModel(2.6), radio), radio)
for fraction in (1.0, 0.5, 0.125):
    print(f"  fraction {fraction:5.3f} -> {fraction * rate:6.3f} bps/Hz")
