"""A set-based reference of the instance check table: the `check` lines that
`harness.verify_instance` prints, computed from the instance document alone
on plain Python sets, with no bitmap helper from `sumset_forge`.

The one input taken from the package is the prop6 matching: the bound sums
|B_i + B_j| over the pairs of whichever SDR `find_sdr` returns (README), so
the reference reads that SDR's (i, j) pairs, or its Hall violator, and
checks that the pairs' representatives a_i + a_j are distinct and as many
as the prop6 family has members.
"""

from fractions import Fraction


def tau(s):
    """The doubling threshold of the hypothesis; none below s = 4."""
    if s < 4:
        return None
    return {4: Fraction(9, 4), 5: Fraction(12, 5)}.get(s, Fraction(5, 2))


def r_parameter(offsets):
    s = len(offsets)
    return min(offsets[-1] - s + 3, s)


def prop6_copies(offsets):
    """Copies of each a_i + A' in the prop6 family: the R = 2, 3 counts when
    max a = s + R - 3 (max a <= 2s - 3), else lemma 2's."""
    s, r = len(offsets), r_parameter(offsets)
    if r in (2, 3) and offsets[-1] <= 2 * s - 3:
        return [s, 2 if r == 3 else 1] + [1] * (s - 2)
    return [s - 1] + [2] * (r - 1) + [1] * (s - r)


def placement(d, layers):
    """The smallest subgroup H, by a scan of the divisors of d ascending,
    with every B_i inside a_i*x + y + H for some (x, y), and the least such
    (x, y) in [0, step)^2, x first.  B_i lies in the coset c + H iff each
    member is c mod the step; y must fit B_1 (a_1 = 0), so only those y
    are tried.  The whole group, the last divisor, places every layered
    set."""
    for order in (h for h in range(1, d + 1) if d % h == 0):
        step = d // order
        ys = [y for y in range(step)
              if all((m - y) % step == 0 for m in layers[0][1])]
        for x in range(step):
            for y in ys:
                if all((m - a * x - y) % step == 0
                       for a, b in layers for m in b):
                    return order, x, y


def pair_sums(d, layers):
    """B_i + B_j mod d for every i <= j, by double loop."""
    s = len(layers)
    return {(i, j): {(x + y) % d for x in layers[i][1] for y in layers[j][1]}
            for i in range(s) for j in range(i, s)}


def lower(flag):
    return str(flag).lower()


def reference_lines(doc, matching):
    """The `check` lines of `verify_instance` on the instance document
    `doc`, given the prop6 matching: a tuple of (i, j) pairs, i <= j, or a
    Hall violator (anything with `indices`)."""
    d = doc["d"]
    layers = [(layer["a"], set(layer["set"])) for layer in doc["layers"]]
    offsets = [a for a, _ in layers]
    s, top = len(layers), offsets[-1]
    sizes = [len(b) for _, b in layers]
    sums = pair_sums(d, layers)
    rows = {}
    for (i, j), pair in sums.items():
        rows.setdefault(offsets[i] + offsets[j], set()).update(pair)
    total, size = sum(map(len, rows.values())), sum(sizes)
    ratio, t = Fraction(total, size), tau(s)
    applicable = t is not None and ratio < t
    lines = [f"check flatten size={total} base={size} ratio={ratio}",
             f"check applicable {lower(applicable)}"]

    if isinstance(matching, tuple):
        reps = [offsets[i] + offsets[j] for i, j in matching]
        assert len(set(reps)) == len(reps) == sum(prop6_copies(offsets))
        bound = sum(len(sums[pair]) for pair in matching)
        if bound > total:
            bound = f"certified bound {bound} exceeds |B~+B~| = {total}"
    else:
        bound = (f"SDR absent for offsets {tuple(offsets)}: violator "
                 f"{matching.indices}")
    lines.append(f"check prop6 bound={bound}")

    r = r_parameter(offsets)
    desc = sorted(sizes, reverse=True)
    held = total - size >= (s - 2) * desc[0] + sum(desc[1:r])
    lines.append(f"check corollary1 holds={lower(held)}")

    if not applicable:
        reason = (f"no doubling threshold for s={s}" if t is None
                  else f"doubling {ratio} >= {t}")
        return lines + ["check prop7 applicable=false",
                        f"check structure not_applicable reason=[{reason}]"]
    lines.append(f"check prop7 applicable=true holds={lower(2 * top < 3 * s)}")

    order, x, y = placement(d, layers)
    largest = max(sizes)
    lhs, rhs = top * order, total - size
    for conclusion, failed, detail in (
            ("max-offset-bound", 2 * top >= 3 * s,
             f"max a_i = {top} >= 1.5*{s}"),
            ("two-thirds-witness", 3 * largest < 2 * order,
             f"max |B_j| = {largest} < (2/3)|H| with |H| = {order}"),
            ("subgroup-size-bound", 2 * order >= 3 * largest,
             f"|H| = {order} >= (3/2) max|B_i| = (3/2)*{largest}"),
            ("ineq7", lhs > rhs, f"(max a_i)|H| = {lhs} > {rhs}")):
        if failed:
            return lines + [f"check structure FAILED conclusion={conclusion}"
                            f" detail=[{detail}]"]
    u = sum(3 * n >= 2 * order for n in sizes)
    w = sum(3 * n < order for n in sizes)
    return lines + [
        f"check structure witness order={order} x={x} y={y} "
        f"j={sizes.index(largest)} "
        f"ineq7={'strict' if lhs < rhs else 'equality'}",
        f"check uvw u={u} v={s - u - w} w={w}",
        f"check lemma5 applicable=true holds={lower(u >= w + 2 * r - 3)}"]
