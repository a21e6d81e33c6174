import pytest

from conftest import iset as tight
from sumset_forge.rectify import (AffineAssignment, bezout, closure_step,
                                  find_seed_pair, good_closure, solve_affine,
                                  solve_affine_bruteforce)
from sumset_forge.sumset_engine import IntegerSet


def iset(bound, members):
    return IntegerSet.of(bound, members)


def euclid_fold(members):
    """Oracle: the plain extended-Euclid fold `bezout` shortcuts, one
    Euclid run per member that rescales every earlier coefficient: (gcd,
    coefficients)."""
    g, coeffs = 0, []
    for m in members:
        a, b, u0, u1, v0, v1 = g, m, 1, 0, 0, 1
        while b:
            t = a // b
            a, b = b, a - t * b
            u0, u1 = u1, u0 - t * u1
            v0, v1 = v1, v0 - t * v1
        g, coeffs = a, [c * u0 for c in coeffs] + [v0]
    return g, tuple(coeffs)


class TestClosure:
    def test_examples(self):
        out = good_closure(iset(6, [0, 1]), iset(6, range(6)))
        assert set(out) == set(range(6))
        ambient = iset(6, [0, 1, 3, 4, 5])
        out = good_closure(iset(6, [3, 4]), ambient)
        assert out.bits == ambient.bits
        out = good_closure(iset(6, [0, 1]), ambient)
        assert set(out) == {0, 1}      # stuck: 2 is outside the ambient

    def test_seed_outside_ambient_rejected(self):
        with pytest.raises(ValueError):
            good_closure(iset(6, [2]), iset(6, [0, 1]))
        with pytest.raises(ValueError):
            closure_step(iset(6, [2]), iset(6, [0, 1]))

    def test_monotone_idempotent_extensive(self, rng):
        for _ in range(10_000):
            bound = rng.randint(1, 30)
            amb_members = rng.sample(range(bound), rng.randint(1, bound))
            ambient = iset(bound, amb_members)
            seed_a = iset(bound, rng.sample(amb_members,
                                            rng.randint(1, len(amb_members))))
            closed = good_closure(seed_a, ambient)
            # extensive
            assert seed_a.issubset(closed)
            # idempotent: closing the closed set returns it unchanged
            assert good_closure(closed, ambient) == closed
            # monotone: a subset seed closes to a subset
            sub = iset(bound, rng.sample(list(seed_a),
                                         rng.randint(1, len(seed_a))))
            assert good_closure(sub, ambient).issubset(closed)


class TestFindSeedPair:
    def test_examples(self):
        assert find_seed_pair(iset(6, [0, 1, 3, 4, 5])) == (3, 4)
        assert find_seed_pair(iset(6, range(6))) == (0, 1)

    def test_precondition_failures(self):
        with pytest.raises(ValueError):
            find_seed_pair(iset(5, [0, 2, 4]))
        with pytest.raises(ValueError):
            find_seed_pair(iset(3, [0, 1, 2]))

    def test_pair_closure_recovers_set(self, rng):
        from itertools import combinations
        for s in range(4, 12):
            need = -(-(2 * s + 3) // 3)      # ceil(2s/3 + 1)
            for n in range(need, s + 1):
                for rest in combinations(range(1, s), n - 1):
                    a = iset(s, (0,) + rest)
                    pair = find_seed_pair(a)
                    assert pair is not None
                    seed = iset(s, pair)
                    assert good_closure(seed, a).bits == a.bits


class TestSolveAffine:
    def test_examples(self):
        a = tight(range(6))
        assign = AffineAssignment(a, tuple((3 * m + 2) % 4 for m in a), 4)
        assert solve_affine(assign, bezout(a)) == (3, 2)
        a013 = tight([0, 1, 3])
        constant = AffineAssignment(a013, (5, 5, 5), 7)
        assert solve_affine(constant, bezout(a013)) == (0, 5)
        a012 = tight([0, 1, 2])
        bad = AffineAssignment(a012, (0, 0, 1), 5)
        assert solve_affine(bad, bezout(a012)) is None

    def test_requires_zero_and_gcd_one(self):
        with pytest.raises(ValueError, match="a-set must contain 0"):
            bezout(tight([1, 2]))
        with pytest.raises(ValueError, match="gcd of nonzero a_i is 2"):
            bezout(tight([0, 2, 4]))
        for members in ([0], [0, 1], [0, 3, 5], [0, 4, 6, 9], [0, 6, 10, 15]):
            a = tight(members)
            c = bezout(a)
            assert len(c) == len(members)
            assert sum(ci * m for ci, m in zip(c, members)) == (len(a) > 1)

    def test_matches_full_rescale_fold(self, rng):
        """The same coefficients as the fold that rescales every earlier
        coefficient at every member, on a-sets of up to 200 members."""
        for _ in range(400):
            n = rng.choice((1, 2, 3, 5, 8, 40, 120, 200))
            scale = rng.choice((1, 1, 2, 6))
            members = [0] + sorted(rng.sample(range(1, 3 * n + 3), n - 1))
            members = [scale * m for m in members]
            a = tight(members)
            g, want = euclid_fold(members)
            if g > 1:
                with pytest.raises(ValueError, match="gcd of nonzero"):
                    bezout(a)
            else:
                assert bezout(a) == want

    def test_zeros_once_gcd_is_one(self, rng):
        """Once the gcd reaches 1, every later member gets coefficient 0,
        as the Euclid fold gives it, also when the gcd reaches 1 late (at
        the last member of (0, 6, 10, 15)) or at once (0, 1, ...); as a
        tuple and as an `IntegerSet`."""
        cases = [(0, 6, 10, 15), (0, 6, 10, 15, 16, 30), (0, 1, 2, 3),
                 (0, 1, 100), (0, 4, 6, 9, 12), (0, 30, 42, 70, 105, 106)]
        for _ in range(300):
            n = rng.randint(2, 12)
            scale = rng.choice((2, 3, 6, 10))
            members = sorted({0, *(scale * rng.randint(1, 20)
                                   for _ in range(n))})
            members += sorted(rng.sample(range(members[-1] + 1, 300), 3))
            cases.append(tuple(members))
        for members in cases:
            g, want = euclid_fold(members)
            if g > 1:
                continue
            assert bezout(members) == bezout(tight(members)) == want
            first = next(i for i in range(len(members))
                         if euclid_fold(members[:i + 1])[0] == 1)
            assert not any(want[first + 1:]), members

    def test_refuses_coefficients_of_another_aset(self):
        """Coefficients that do not give sum c_i a_i = 1 on this a-set are
        refused, never read as "no solution"."""
        a = tight([0, 2, 3])
        assign = AffineAssignment(a, (1, 5, 0), 7)
        assert solve_affine(assign, bezout(a)) == (2, 1)
        for other in ([0, 1, 3], [0, 1, 2, 3], [0, 1], [0]):
            c = bezout(tight(other))
            with pytest.raises(ValueError, match="do not fit the a-set"):
                solve_affine(assign, c)
        with pytest.raises(ValueError, match="do not fit the a-set"):
            solve_affine(AffineAssignment(tight([1, 2]),
                                          (0, 0), 3), (-1, 1))

    def test_solution_reverifies(self, rng):
        for _ in range(2000):
            q = rng.randint(1, 9)
            n = rng.randint(4, 9)
            members = [0] + sorted(rng.sample(range(1, 12), n - 1))
            from math import gcd
            g = 0
            for m in members[1:]:
                g = gcd(g, m)
            if g != 1:
                continue
            a = tight(members)
            values = tuple(rng.randrange(q) for _ in members)
            assign = AffineAssignment(a, values, q)
            got = solve_affine(assign, bezout(a))
            if got is not None:
                x, y = got
                assert all((m * x + y) % q == v
                           for m, v in zip(members, assign.values))
            else:
                assert solve_affine_bruteforce(assign) is None

    def test_agrees_with_bruteforce(self, rng):
        """The closed form equals the brute-force oracle on every assignment,
        consistent or not: both return the unique solution, or None."""
        from math import gcd
        outcomes = set()
        for _ in range(3000):
            q = rng.randint(1, 12)
            n = rng.randint(1, 9)
            members = [0] + sorted(rng.sample(range(1, 14), n - 1))
            g = 0
            for m in members:
                g = gcd(g, m)
            if g > 1:
                continue
            if rng.random() < 0.5:
                x, y = rng.randrange(q), rng.randrange(q)
                values = tuple((m * x + y) % q for m in members)
            else:
                values = tuple(rng.randrange(q) for _ in members)
            a = tight(members)
            assign = AffineAssignment(a, values, q)
            brute = solve_affine_bruteforce(assign)
            outcomes.add((n == 1, brute is None))
            assert solve_affine(assign, bezout(a)) == brute
        # singleton {0} included; both solvable and unsolvable cases seen
        assert outcomes == {(True, False), (False, False), (False, True)}
