import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

from wedderburn import (
    BUILTIN_GROUPS,
    FiniteGroup,
    Permutation,
    generate,
    load_group,
    parse_cycles,
    parse_group_text,
    power_class,
)
from wedderburn.perm import _orbits

GROUP_DIR = Path(__file__).resolve().parents[1] / "bench" / "groups"


def brute_force_group(gen_images, degree):
    """Independent closure: multiply image tuples until no new ones appear."""
    def mul(a, b):
        return tuple(a[b[i]] for i in range(degree))

    elems = {tuple(range(degree))}
    frontier = list(elems)
    gens = [tuple(g) for g in gen_images]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new
    return elems


def class_members(G):
    """The member indices of each class, in class order, read off class_index_of."""
    members = [[] for _ in G.classes]
    for i, ci in enumerate(G.class_index_of):
        members[ci].append(i)
    return members


def brute_force_classes(elems, degree):
    def mul(a, b):
        return tuple(a[b[i]] for i in range(degree))

    def inv(a):
        out = [0] * degree
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)

    unseen = set(elems)
    classes = []
    while unseen:
        g = next(iter(unseen))
        cls = {mul(mul(h, g), inv(h)) for h in elems}
        unseen -= cls
        classes.append(cls)
    return classes


def test_parse_cycles_generator():
    g = parse_cycles("(3,7,5)(4,8,6)", 8)
    want = {3: 7, 7: 5, 5: 3, 4: 8, 8: 6, 6: 4}
    for i in range(1, 9):
        assert g(i - 1) + 1 == want.get(i, i)


def test_parse_cycles_identity():
    assert parse_cycles("", 8) == Permutation.identity(8)
    assert parse_cycles("()", 8) == Permutation.identity(8)
    assert parse_cycles(" ( 1 , 2 ) ", 3) == parse_cycles("(1,2)", 3)


def test_parse_cycles_involution_rep():
    g = parse_cycles("(1,2)(3,4)(5,8)(6,7)", 8)
    assert g.order() == 2


@pytest.mark.parametrize(
    "text",
    ["(1,9)", "(0,1)", "(1,2)(2,3)", "(1,1)", "(1,2", "1,2)", "(1,,2)", "(a,b)", "(1,2)x"],
)
def test_parse_cycles_rejects(text):
    with pytest.raises(ValueError):
        parse_cycles(text, 8)


def test_compose_identity_and_inverse():
    g = parse_cycles("(1,2,6)(3,4,8)", 8)
    ident = Permutation.identity(8)
    assert ident * g == g
    assert g * ident == g
    assert g * g.inverse() == ident


def test_compose_order3():
    g = parse_cycles("(3,5,7)(4,6,8)", 8)
    assert g * g * g == Permutation.identity(8)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        Permutation.identity(3) * Permutation.identity(4)


def test_compose_applies_right_factor_first():
    a = parse_cycles("(1,2)", 3)
    b = parse_cycles("(2,3)", 3)
    # (a*b)(i) = a(b(i)): point 2 -> b -> 3 -> a -> 3
    assert (a * b)(1) == 2


@pytest.mark.parametrize("images", [[0, 0, 1], [1, 2, 3], [0, 2, 2, 1]])
def test_permutation_rejects_non_bijections(images):
    with pytest.raises(ValueError):
        Permutation(images)


def test_products_compose_right_to_left():
    rng = random.Random(7)
    for degree in (1, 2, 5, 9):
        for _ in range(20):
            a = Permutation(rng.sample(range(degree), degree))
            b = Permutation(rng.sample(range(degree), degree))
            ab = a * b
            assert [ab(i) for i in range(degree)] == [a(b(i)) for i in range(degree)]
            assert sorted(ab.images) == list(range(degree))
            assert ab == Permutation(ab.images) and hash(ab) == hash(Permutation(ab.images))
            assert a.inverse() * a == Permutation.identity(degree)


def test_element_order():
    assert Permutation.identity(8).order() == 1
    assert parse_cycles("(2,3,5,4,7,8,6)", 8).order() == 7
    assert parse_cycles("(1,2,3,5)(4,8,7,6)", 8).order() == 4


def test_generate_sl32(sl32_s8):
    assert sl32_s8.order == 168
    assert len(sl32_s8.classes) == 6
    assert sl32_s8.exponent == 84


def test_generate_trivial():
    G = generate([Permutation.identity(4)])
    assert G.order == 1
    assert len(G.classes) == 1
    assert G.classes[0].size == 1


def test_generate_cap():
    gens = [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2)", 5)]
    with pytest.raises(ValueError):
        generate(gens, cap=100)


def test_generate_s5_against_brute_force(s5):
    gens = [parse_cycles("(1,2,3,4,5)", 5).images, parse_cycles("(1,2)", 5).images]
    oracle = brute_force_group(gens, 5)
    assert s5.order == len(oracle) == 120
    assert {g.images for g in s5.elements} == oracle
    oracle_classes = brute_force_classes(oracle, 5)
    assert len(s5.classes) == len(oracle_classes) == 7
    assert sorted(c.size for c in s5.classes) == sorted(len(c) for c in oracle_classes)
    assert sorted(c.size for c in s5.classes) == [1, 10, 15, 20, 20, 24, 30]


def test_class_table_sl32(sl32_s8):
    assert [c.size for c in sl32_s8.classes] == [1, 21, 56, 42, 24, 24]
    assert [c.element_order for c in sl32_s8.classes] == [1, 2, 3, 4, 7, 7]


def test_power_class_fusion(sl32_s8):
    G = sl32_s8
    a, b = 4, 5  # the two order-7 classes
    assert power_class(G, a, 2) == a
    assert power_class(G, a, 4) == a
    assert power_class(G, a, 3) == b
    assert power_class(G, a, 5) == b
    assert power_class(G, a, 6) == b
    assert power_class(G, b, 2) == b
    assert power_class(G, b, 3) == a


def test_power_class_trivial_cases(sl32_s8):
    for ci in range(6):
        assert power_class(sl32_s8, ci, 1) == ci
        order = sl32_s8.classes[ci].element_order
        assert power_class(sl32_s8, ci, order) == 0


def test_power_class_depends_only_on_m_mod_order(sl32_s8):
    rng = random.Random(7)
    for _ in range(50):
        ci = rng.randrange(6)
        m = rng.randrange(-200, 200)
        order = sl32_s8.classes[ci].element_order
        assert power_class(sl32_s8, ci, m) == power_class(sl32_s8, ci, m % order)


def test_pow_is_repeated_product(table_group):
    # g**m is the product of m mod ord(g) copies of g, for negative and zero m too
    for g in table_group.elements:
        order = g.order()
        one = Permutation.identity(g.degree)
        copies = [one]
        for _ in range(order - 1):
            copies.append(copies[-1] * g)
        for m in range(-2 * order, 2 * order + 1):
            assert g**m == copies[m % order]


def test_cycle_walk_matches_products_and_inverse():
    # cycles(), order() and g**m share one cycle walk; check each against
    # repeated __mul__ and inverse() on seeded random permutations
    rng = random.Random("cycle-walk")
    for _ in range(300):
        degree = rng.randint(1, 12)
        images = list(range(degree))
        rng.shuffle(images)
        g = Permutation(images)
        one = Permutation.identity(degree)
        powers = [one, g]  # powers[j] = g^j by repeated products
        while powers[-1] != one:
            powers.append(powers[-1] * g)
        order = len(powers) - 1
        assert g.order() == order
        cycles = []
        for x in range(degree):
            length = next(j for j in range(1, order + 1) if powers[j](x) == x)
            cycle = [powers[j](x) for j in range(length)]
            if length > 1 and min(cycle) == x:
                cycles.append(tuple(y + 1 for y in cycle))
        assert g.cycles() == cycles
        inverse_powers = [one]
        for _ in range(3):
            inverse_powers.append(inverse_powers[-1] * g.inverse())
        for m in range(-3, 2 * order + 1):
            assert g**m == (inverse_powers[-m] if m < 0 else powers[m % order])


def test_pow_degree_one():
    g = Permutation([0])
    for m in (-3, -1, 0, 1, 5):
        assert g**m == g and (g**m).degree == 1


def test_power_class_multiplies_no_permutations(monkeypatch, sl32_s8, s5):
    calls = {"mul": 0}
    mul = Permutation.__mul__

    def counted_mul(a, b):
        calls["mul"] += 1
        return mul(a, b)

    monkeypatch.setattr(Permutation, "__mul__", counted_mul)
    for G in (sl32_s8, s5):
        for ci, cl in enumerate(G.classes):
            for m in range(-cl.element_order, 2 * cl.element_order + 1):
                power_class(G, ci, m)
    assert calls == {"mul": 0}
    s5.elements[1] * s5.elements[2]
    assert calls == {"mul": 1}  # the counter does see calls


def test_builtin_p2f2(sl32_p2f2):
    G = sl32_p2f2
    assert G.order == 168
    assert G.degree == 7
    assert sorted(c.size for c in G.classes) == [1, 21, 24, 24, 42, 56]
    # orbit-stabilizer: |G_1| = 168 / 7
    assert sum(1 for g in G.elements if g(0) == 0) == 24


def test_random_triple_associativity(sl32_s8):
    rng = random.Random(0)
    els = sl32_s8.elements
    ident = Permutation.identity(8)
    for _ in range(1000):
        a, b, c = (els[rng.randrange(168)] for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == ident


def test_generate_is_deterministic():
    gens = [parse_cycles("(3,7,5)(4,8,6)", 8), parse_cycles("(1,2,6)(3,4,8)", 8)]
    G1 = generate(gens)
    G2 = generate(gens)
    assert [g.images for g in G1.elements] == [g.images for g in G2.elements]


def test_group_file_roundtrip():
    text = """
# flagship group
degree 8
(3,7,5)(4,8,6)
(1,2,6)(3,4,8)   # second generator
"""
    G = parse_group_text(text)
    assert G.order == 168


def test_group_file_trivial():
    G = parse_group_text("degree 3\n")
    assert G.order == 1
    assert G.degree == 3


@pytest.mark.parametrize("text", ["", "degree x", "(1,2)", "degree 0", "degree 3\n(1,4)"])
def test_group_file_rejects(text):
    with pytest.raises(ValueError):
        parse_group_text(text)


def test_cycle_string_roundtrip(sl32_s8):
    for g in sl32_s8.elements[:40]:
        assert parse_cycles(g.cycle_string(), 8) == g


def test_builtin_p2f2_matches_s8_class_data(sl32_s8, sl32_p2f2):
    left = [(c.element_order, c.size) for c in sl32_s8.classes]
    right = [(c.element_order, c.size) for c in sl32_p2f2.classes]
    assert left == right


TABLE_GROUPS = ["sl32_s8", "sl32_p2f2", "s5", "c7c3", "q8", "trivial"]


@pytest.fixture(params=TABLE_GROUPS)
def table_group(request):
    if request.param == "trivial":
        return generate([Permutation.identity(3)])
    return request.getfixturevalue(request.param)


def test_classes_partition_and_conjugation_closure(table_group):
    G = table_group
    assert sum(c.size for c in G.classes) == G.order
    members = class_members(G)
    assert [len(m) for m in members] == [c.size for c in G.classes]
    for c, idx in zip(G.classes, members):
        for i in idx[:5]:
            x = G.elements[i]
            assert x.order() == c.element_order
            for g in G.generators:
                assert G.class_index_of[G.index(g * x * g.inverse())] == G.class_index_of[i]
    oracle = brute_force_group([g.images for g in G.generators], G.degree)
    oracle_classes = brute_force_classes(oracle, G.degree)
    member_sets = [{G.elements[i].images for i in idx} for idx in members]
    assert len(member_sets) == len(oracle_classes)
    assert all(m in oracle_classes for m in member_sets)


def test_class_index_is_the_least_member_and_the_representative(table_group):
    G = table_group
    for ci, (c, idx) in enumerate(zip(G.classes, class_members(G))):
        assert G.elements[c.index] == c.representative
        assert G.class_index_of[c.index] == ci
        assert c.index == idx[0]


def test_class_labels_are_a_read_only_int32_array():
    # the digest pins the labels, as tuples of ints, of the three builtins
    # and then the bench group files
    groups = [BUILTIN_GROUPS[name]() for name in sorted(BUILTIN_GROUPS)]
    groups += [load_group(path) for path in sorted(GROUP_DIR.glob("*.txt"))]
    assert len(groups) == 14
    for G in groups:
        labels = G.class_index_of
        assert isinstance(labels, np.ndarray) and labels.dtype == np.int32 and labels.shape == (G.order,)
        assert not labels.flags.writeable
        with pytest.raises(ValueError):
            labels[0] = 1
    digest = hashlib.sha256(repr([tuple(G.class_index_of.tolist()) for G in groups]).encode()).hexdigest()
    assert digest == "7dbe5be69bbb00166cab2c9c25a4d5fca0beaeaa1965943ed61a9ebdfc42465e"
    G = groups[-1]
    assert all(type(power_class(G, ci, m)) is int for ci in range(len(G.classes)) for m in (0, 1, 5))


def test_building_a_group_multiplies_no_permutations(monkeypatch):
    # the closure, inverses and classes run on image tuples and index maps
    calls = {"mul": 0, "inverse": 0}
    mul, inverse = Permutation.__mul__, Permutation.inverse

    def counted_mul(a, b):
        calls["mul"] += 1
        return mul(a, b)

    def counted_inverse(a):
        calls["inverse"] += 1
        return inverse(a)

    s5_gens = [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2)", 5)]
    c7c3_gens = [parse_cycles("(1,2,3,4,5,6,7)", 7), parse_cycles("(2,3,5)(4,7,6)", 7)]
    monkeypatch.setattr(Permutation, "__mul__", counted_mul)
    monkeypatch.setattr(Permutation, "inverse", counted_inverse)
    for gens, order, n_classes in [(s5_gens, 120, 7), (c7c3_gens, 21, 5)]:
        G = FiniteGroup(gens)
        assert (G.order, len(G.classes), G.inverse_indices.shape) == (order, n_classes, (order,))
    assert calls == {"mul": 0, "inverse": 0}
    s5_gens[0] * s5_gens[1].inverse()
    assert calls == {"mul": 1, "inverse": 1}  # the counters do see calls


def test_mul_table_matches_products(table_group):
    G = table_group
    T = G.mul_table()
    assert T.shape == (G.order, G.order) and T.dtype == np.int32
    for i, a in enumerate(G.elements):
        assert T[i].tolist() == [G.index(a * b) for b in G.elements]


@pytest.mark.parametrize("name", sorted(p.stem for p in GROUP_DIR.glob("*.txt")) + sorted(BUILTIN_GROUPS))
def test_mul_table_prefix_is_its_leading_columns(name):
    # elements are numbered breadth-first, so a prefix of columns is filled
    # from its own columns; the table is built afresh and never kept
    G = BUILTIN_GROUPS[name]() if name in BUILTIN_GROUPS else load_group(GROUP_DIR / f"{name}.txt")
    T = G.mul_table()
    last_rep = max(G.index(c.representative) for c in G.classes)
    for stop in sorted({1, 2, G.order // 3, last_rep + 1, G.order - 1, G.order}):
        assert np.array_equal(G.mul_table(stop), T[:, :stop]), stop
    G.class_product_coefficients()
    assert G.mul_table() is not T
    assert not any(isinstance(v, np.ndarray) and v.shape == T.shape for v in vars(G).values())


@pytest.mark.parametrize("name", sorted(p.stem for p in GROUP_DIR.glob("*.txt")) + sorted(BUILTIN_GROUPS))
def test_mul_columns_are_the_table_columns(name):
    # any columns, each built alone along its element's parent word, in any
    # order and with repeats, are those of the full table
    G = BUILTIN_GROUPS[name]() if name in BUILTIN_GROUPS else load_group(GROUP_DIR / f"{name}.txt")
    T = G.mul_table()
    elements = [0, G.order - 1, 0] + [c.index for c in G.classes][::-1] + random.Random(0).choices(range(G.order), k=20)
    columns = G.mul_columns(np.array(elements))
    assert columns.dtype == np.int32 and columns.flags.f_contiguous
    assert np.array_equal(columns, T[:, elements])
    assert G.mul_columns([]).shape == (G.order, 0)


def test_inverse_indices_match_inverse(table_group):
    G = table_group
    assert G.inverse_indices.tolist() == [G.index(g.inverse()) for g in G.elements]


def test_class_product_coefficients_brute_force(table_group):
    # count the pairs (x, y) in K_i x K_j by their product, and require the
    # count to be c[i, j, k] at every z in K_k, not only at the representative
    G = table_group
    c = G.class_product_coefficients()
    m = len(G.classes)
    assert c.shape == (m, m, m) and c.dtype == np.int64
    members = class_members(G)
    for i in range(m):
        for j in range(m):
            count = [0] * G.order
            for x in members[i]:
                for y in members[j]:
                    count[G.index(G.elements[x] * G.elements[y])] += 1
            for k in range(m):
                assert {count[z] for z in members[k]} == {c[i, j, k]}


def test_group_is_what_its_generators_generate():
    # the 5-cycle alone generates C5, whatever group it was taken from
    G = FiniteGroup([parse_cycles("(1,2,3,4,5)", 5)])
    assert G.order == 5
    assert len(G.classes) == 5
    T = G.mul_table()
    for i, a in enumerate(G.elements):
        assert T[i].tolist() == [G.index(a * b) for b in G.elements]


def point_orbits(G):
    """The orbits of G on its 0-indexed points, each sorted: perm._orbits on
    the generators' image tuples."""
    return [sorted(o) for o in _orbits(G.degree, [g.images for g in G.generators])[0]]


def brute_force_point_orbits(G):
    """Each point's closure under the generators, one per orbit, sorted."""
    orbits = set()
    for start in range(G.degree):
        orb = {start}
        while True:
            grown = orb | {g(x) for g in G.generators for x in orb}
            if grown == orb:
                break
            orb = grown
        orbits.add(tuple(sorted(orb)))
    return [list(o) for o in sorted(orbits)]


def test_point_orbits_match_brute_force(table_group):
    G = table_group
    assert point_orbits(G) == brute_force_point_orbits(G)


def test_point_orbits_of_an_intransitive_group():
    # S3 on {1,2,3} inside 5 points fixes 4 and 5
    H = FiniteGroup([parse_cycles("(1,2,3)", 5), parse_cycles("(1,2)", 5)])
    assert point_orbits(H) == brute_force_point_orbits(H) == [[0, 1, 2], [3], [4]]
