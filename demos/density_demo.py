"""Exact subgraph density and shallow-minor density at desk scale.

`max_subgraph_density` is exact (iterated integer min-cuts), `mad` is
twice it, and `nabla_r_bruteforce` enumerates rooted-block contractions
to evaluate the depth-r minor density of tiny graphs -- enough to check
the inequalities the girth thresholds lean on.  This demo shows the
densities and the subdivision inequality; the nesting inequality (depth-b
minors of depth-a minors stay below the depth-c density when
2c+1 >= (2a+1)(2b+1)) is checked in tests/test_density.py.

Run:  python demos/density_demo.py
"""

from fractions import Fraction

from pathdeg import complete, cycle, fixture, mad, max_subgraph_density, nabla_r_bruteforce, subdivide


def density_table():
    print("Exact densities and maximum average degrees")
    for name, g in [("C_6", cycle(6)), ("K_4", complete(4)),
                    ("petersen", fixture("petersen")), ("heawood", fixture("heawood"))]:
        print(f"  {name:>9}: density {max_subgraph_density(g)}, mad {mad(g)}")
    print()


def shallow_minor_table():
    print("Brute-force shallow-minor densities (depth 0, 1/2, 1)")
    for name, g in [("K_4", complete(4)), ("C_6", cycle(6)), ("prism", fixture("prism"))]:
        row = [str(nabla_r_bruteforce(g, r)) for r in (0, Fraction(1, 2), 1)]
        print(f"  {name:>6}: " + "  ".join(row))
    print()


def subdivision_transfer():
    print("Subdividing dilutes shallow-minor density")
    g = complete(4)
    sub = subdivide(g, 1)  # every chain has length 2
    lhs = nabla_r_bruteforce(sub, 1)
    rhs = nabla_r_bruteforce(g, 1)  # ceil(1 / (p-1)) with p=3
    print(f"  nabla_1(K_4 subdivided once) = {lhs} <= nabla_1(K_4) = {rhs}  ({lhs <= rhs})")


if __name__ == "__main__":
    density_table()
    shallow_minor_table()
    subdivision_transfer()
