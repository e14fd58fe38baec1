import pytest

from pathdeg import complete, cycle, girth, path, theta
from pathdeg.generators import fixture, fixture_names, uneven_k4_witness


class TestBasicGenerators:
    def test_cycle(self):
        g = cycle(9)
        assert g.n == 9 and girth(g) == 9

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle(2)

    def test_theta_222(self):
        g = theta(2, 2, 2)
        assert g.n == 5 and g.m == 6 and girth(g) == 4

    def test_theta_hubs_are_0_and_1(self):
        g = theta(2, 3)
        assert g.degree(0) == 2 and g.degree(1) == 2
        g = theta(2, 2, 2, 2)
        assert g.degree(0) == 4 and g.degree(1) == 4

    def test_theta_rejects_parallel(self):
        with pytest.raises(ValueError):
            theta(1, 1, 2)

    def test_theta_girth_is_two_smallest(self):
        assert girth(theta(2, 3, 5)) == 5
        assert girth(theta(1, 4, 4)) == 5


class TestFixtures:
    @pytest.mark.parametrize("name,order,size,reg,g", [
        ("dodecahedron", 20, 30, 3, 5),
        ("petersen", 10, 15, 3, 5),
        ("heawood", 14, 21, 3, 6),
        ("mcgee", 24, 36, 3, 7),
        ("tutte-coxeter", 30, 45, 3, 8),
        ("prism", 6, 9, 3, 3),
        ("k33", 6, 9, 3, 4),
        ("k4", 4, 6, 3, 3),
        ("k5", 5, 10, 4, 3),
    ])
    def test_declared_shape(self, name, order, size, reg, g):
        fx = fixture(name)
        assert fx.n == order and fx.m == size
        assert all(d == reg for d in fx.degrees())
        assert girth(fx) == g

    def test_unknown_fixture(self):
        with pytest.raises(ValueError, match="unknown fixture"):
            fixture("mystery")

    def test_all_names_load(self):
        for name in fixture_names():
            fixture(name)

    def test_deterministic(self):
        assert fixture("mcgee").edges == fixture("mcgee").edges
        assert cycle(6).edges == cycle(6).edges


class TestGenerateDispatch:
    def test_kinds(self):
        assert path(4).m == 3
        assert complete(4).m == 6
        assert theta(2, 2, 2).m == 6
        assert fixture("petersen").n == 10


class TestUnevenK4Witness:
    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_girth_exactly_2p_minus_2(self, p):
        assert girth(uneven_k4_witness(p)) == 2 * p - 2

    def test_branch_degrees(self):
        g = uneven_k4_witness(4)
        assert sorted(d for d in g.degrees() if d != 2) == [3, 3, 3, 3]
