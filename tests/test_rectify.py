import pytest

from sumset_forge.rectify import (AffineAssignment, closure_step,
                                  find_seed_pair, good_closure,
                                  parallelogram_holds, sk_classes,
                                  solve_affine, solve_affine_bruteforce)
from sumset_forge.sumset_engine import IntegerSet


def iset(bound, members):
    return IntegerSet.of(bound, members)


class TestClosure:
    def test_examples(self):
        out = good_closure(iset(6, [0, 1]), iset(6, range(6)))
        assert set(out.current) == set(range(6))
        ambient = iset(6, [0, 1, 3, 4, 5])
        out = good_closure(iset(6, [3, 4]), ambient)
        assert out.current.bits == ambient.bits
        out = good_closure(iset(6, [0, 1]), ambient)
        assert set(out.current) == {0, 1}      # stuck: 2 is outside the ambient

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
            closed = good_closure(seed_a, ambient).current
            # extensive
            assert seed_a.issubset(closed)
            # idempotent
            again = good_closure(closed, ambient)
            assert again.current.bits == closed.bits and again.steps == 0
            # monotone: a subset seed closes to a subset
            sub = iset(bound, rng.sample(list(seed_a),
                                         rng.randint(1, len(seed_a))))
            assert good_closure(sub, ambient).current.issubset(closed)


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
                    assert good_closure(seed, a).current.bits == a.bits


class TestParallelogram:
    def test_affine_data_consistent(self):
        a = IntegerSet.from_members(range(6))
        assign = AffineAssignment(a, tuple((2 * m + 1) % 8 for m in a), 8)
        assert parallelogram_holds(assign) is None

    def test_violating_quadruple(self):
        assign = AffineAssignment(IntegerSet.from_members([0, 1, 2]),
                                  (0, 0, 1), 5)
        quad = parallelogram_holds(assign)
        assert quad is not None
        i, j, u, v = quad
        m = assign.aset.members()
        assert m[j] - m[i] == m[v] - m[u]
        assert (assign.values[j] - assign.values[i]) % 5 \
            != (assign.values[v] - assign.values[u]) % 5

    def test_constant_values_consistent(self):
        assign = AffineAssignment(IntegerSet.from_members([0, 2, 5]),
                                  (3, 3, 3), 7)
        assert parallelogram_holds(assign) is None


class TestSkClasses:
    def test_affine_data_single_class(self):
        a = IntegerSet.from_members(range(6))
        assign = AffineAssignment(a, tuple((3 * m + 2) % 4 for m in a), 4)
        assert len(sk_classes(assign, 1).classes) == 1

    def test_inconsistent_data_splits(self):
        assign = AffineAssignment(IntegerSet.from_members([0, 1, 2]),
                                  (0, 0, 1), 5)
        assert len(sk_classes(assign, 1).classes) == 2

    def test_no_pairs_at_difference(self):
        assign = AffineAssignment(IntegerSet.from_members([0, 1]), (0, 1), 3)
        assert sk_classes(assign, 5).classes == ()

    def test_k_must_be_positive(self):
        assign = AffineAssignment(IntegerSet.from_members([0, 1]), (0, 1), 3)
        with pytest.raises(ValueError):
            sk_classes(assign, 0)


class TestSolveAffine:
    def test_examples(self):
        a = IntegerSet.from_members(range(6))
        assign = AffineAssignment(a, tuple((3 * m + 2) % 4 for m in a), 4)
        assert solve_affine(assign) == (3, 2)
        constant = AffineAssignment(IntegerSet.from_members([0, 1, 3]),
                                    (5, 5, 5), 7)
        assert solve_affine(constant) == (0, 5)
        bad = AffineAssignment(IntegerSet.from_members([0, 1, 2]),
                               (0, 0, 1), 5)
        assert solve_affine(bad) is None

    def test_requires_zero_and_gcd_one(self):
        with pytest.raises(ValueError):
            solve_affine(AffineAssignment(IntegerSet.from_members([1, 2]),
                                          (0, 0), 3))
        with pytest.raises(ValueError):
            solve_affine(AffineAssignment(IntegerSet.from_members([0, 2, 4]),
                                          (0, 0, 0), 3))

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
            a = IntegerSet.from_members(members)
            values = tuple(rng.randrange(q) for _ in members)
            assign = AffineAssignment(a, values, q)
            got = solve_affine(assign)
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
            assign = AffineAssignment(IntegerSet.from_members(members),
                                      values, q)
            brute = solve_affine_bruteforce(assign)
            outcomes.add((n == 1, brute is None))
            assert solve_affine(assign) == brute
        # singleton {0} included; both solvable and unsolvable cases seen
        assert outcomes == {(True, False), (False, False), (False, True)}
