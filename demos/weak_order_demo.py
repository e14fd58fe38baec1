"""Weak coloring orders from exact-length ear certificates.

For a graph that reduces through ears of length exactly 2q, placing each
ear's midpoint first and its interior last yields a vertex order whose
weak x-reachability sets stay below an explicit target for every x <= r.
The achieved weak r-coloring number lands within r+2 (plus a logarithmic
correction when q < 2r) -- independent of the graph's size.

Run:  python demos/weak_order_demo.py
"""

from pathdeg import cycle, fixture, subdivide, wcol_exact, wcol_under_order, weak_order
from pathdeg.bounds import wcol_girth_rule
from pathdeg.wcol import WcolBoundParams, wreach_bound_ok


def certified_orders():
    print("Constructed orders and their certified weak-reachability profile")
    cases = [
        ("C_9", cycle(9), WcolBoundParams(r=3, q=4)),
        ("C_20", cycle(20), WcolBoundParams(r=2, q=4)),
        ("dodecahedron/5", subdivide(fixture("dodecahedron"), 5), WcolBoundParams(r=2, q=3)),
        ("dodecahedron/11", subdivide(fixture("dodecahedron"), 11), WcolBoundParams(r=3, q=6)),
    ]
    for name, g, params in cases:
        order = weak_order(g, params)
        profile = [wcol_under_order(g, order, x) for x in range(params.r + 1)]
        assert all(wreach_bound_ok(worst, x, params) for x, worst in enumerate(profile))
        achieved = profile[-1]
        print(f"  {name} (n={g.n}), r={params.r}, q={params.q}: "
              f"max |WReach_x| = {profile}, wcol under order = {achieved} "
              f"<= {int(wcol_girth_rule(params.r, params.q))}")
    print()


def brute_force_comparison():
    print("Brute force over every vertex order on tiny graphs")
    from pathdeg import complete, path

    for name, g, r in [("P_3", path(3), 1), ("K_3", complete(3), 1), ("C_7", cycle(7), 2)]:
        print(f"  wcol_{r}({name}) = {wcol_exact(g, r)}")


if __name__ == "__main__":
    certified_orders()
    brute_force_comparison()
