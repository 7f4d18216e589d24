"""Show what a passive reflecting surface buys: coherent N**2 gain, the
product-distance penalty, and the two coverage geometries.

Run with `python demos/reflection_gain.py`.
"""

from uavirs import (
    IrsSurface,
    LinkState,
    PathLossModel,
    Position3D,
    RadioParams,
    SurfaceKind,
    covers,
    leg_amplitude,
    link_rate,
)

radio = RadioParams(tx_power=0.1, noise_power=1e-11, ref_path_gain_db=-30.0)
los = PathLossModel(2.2)


def reflected_rate(d_src, d_dst, n):
    """Rate over N elements with the direct link blocked: A = N * a_src * a_dst."""
    return link_rate(n * leg_amplitude(d_src, los, radio) * leg_amplitude(d_dst, los, radio), radio)


# With the direct link blocked, the reflected amplitudes of N elements add
# coherently, so SNR grows as N**2: each doubling adds ~2 bps/Hz.
print("element count vs rate (direct link blocked, 10 m + 15 m legs)")
for n in (75, 150, 300, 600):
    rate = reflected_rate(10.0, 15.0, n)
    print(f"  N={n:4d}: SNR={2.0**rate - 1.0:10.1f}  rate={rate:6.2f} bps/Hz")
print()

# The reflected path pays the product of both leg losses, which is why a
# surface helps most when it sits close to one endpoint.
print("product-distance penalty at fixed 40 m endpoint separation, N=300")
for d_src in (5.0, 10.0, 20.0, 35.0):
    rate = reflected_rate(d_src, 40.0 - d_src, 300)
    print(f"  legs {d_src:4.1f} m + {40.0 - d_src:4.1f} m: rate={rate:6.2f} bps/Hz")
print()

# Wall-mounted surfaces serve their front half-space only; a UAV-mounted one
# reflects panoramically and needs line of sight alone.
wall = IrsSurface(
    id="wall",
    kind=SurfaceKind.TERRESTRIAL,
    position=Position3D(100.0, 30.0, 10.0),
    num_elements=300,
    facing_normal=(0.0, -1.0, 0.0),
)
flying = IrsSurface(
    id="flying",
    kind=SurfaceKind.AERIAL_MOUNTED,
    position=Position3D(100.0, 30.0, 50.0),
    num_elements=300,
)
front = Position3D(100.0, 10.0, 0.0)
behind = Position3D(100.0, 50.0, 0.0)
print("coverage:")
print(f"  wall-mounted, node in front : {covers(wall, front)}")
print(f"  wall-mounted, node behind   : {covers(wall, behind)}")
print(f"  UAV-mounted, node behind, LoS : {covers(flying, behind, link_state=LinkState.LOS)}")
print(f"  UAV-mounted, node behind, NLoS: {covers(flying, behind, link_state=LinkState.NLOS)}")
