"""Shared fixtures: small finite groups and oracle helpers."""

import pytest
from hypothesis import settings

from haar import HaarError, _grid, make_group
from haar.groups import cyclic_table

# the same examples on every run, so two trees are compared on equal draws;
# no deadline, since timing on a loaded machine is no property of the code
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def haar_errors() -> list:
    """``HaarError`` and all its subclasses, found recursively, by name."""
    found, todo = set(), [HaarError]
    while todo:
        cls = todo.pop()
        found.add(cls)
        todo += cls.__subclasses__()
    return sorted(found, key=lambda cls: cls.__name__)


def direct_product_table(t1, t2):
    k1, k2 = len(t1), len(t2)

    def enc(a, b):
        return a * k2 + b

    table = []
    for a1 in range(k1):
        for a2 in range(k2):
            row = []
            for b1 in range(k1):
                for b2 in range(k2):
                    row.append(enc(t1[a1][b1], t2[a2][b2]))
            table.append(tuple(row))
    return tuple(table)


def s3_table():
    """Symmetric group on 3 letters via permutation composition."""
    import itertools
    perms = [(0, 1, 2)] + [p for p in itertools.permutations(range(3))
                           if p != (0, 1, 2)]

    def compose(p, q):
        # (p o q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(3))

    idx = {p: i for i, p in enumerate(perms)}
    return tuple(tuple(idx[compose(perms[a], perms[b])] for b in range(6))
                 for a in range(6))


def q8_table():
    """Quaternion group {1, -1, i, -i, j, -j, k, -k} as signed units."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def mul(a, b):
        sa = -1 if a.startswith("-") else 1
        sb = -1 if b.startswith("-") else 1
        ua, ub = a.lstrip("-"), b.lstrip("-")
        table = {
            ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"),
            ("1", "k"): (1, "k"), ("i", "1"): (1, "i"), ("j", "1"): (1, "j"),
            ("k", "1"): (1, "k"), ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
            ("k", "k"): (-1, "1"), ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
            ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"), ("k", "i"): (1, "j"),
            ("i", "k"): (-1, "j"),
        }
        s, u = table[(ua, ub)]
        s *= sa * sb
        return ("-" if s < 0 else "") + u

    idx = {n: i for i, n in enumerate(names)}
    # reorder so index 0 is the identity (it already is)
    return tuple(tuple(idx[mul(a, b)] for b in names) for a in names)


FIXTURE_TABLES = {
    "z2xz2": lambda: direct_product_table(cyclic_table(2), cyclic_table(2)),
    "s3": s3_table,
    "q8": q8_table,
}


@pytest.fixture
def empty_grid_cache():
    """Start from an empty SU(2) grid-table cache, so that a test which
    counts or forbids table builds sees every build its integral needs."""
    _grid._grid_axes.cache_clear()


@pytest.fixture
def circle():
    return make_group("circle")


@pytest.fixture
def su2():
    return make_group("su2")


def finite_fixture_groups(max_order=12):
    """The acceptance fixture set: cyclic up to max_order, Z2xZ2, S3, Q8."""
    groups = []
    for k in range(1, max_order + 1):
        groups.append((f"z{k}", make_group("cyclic", k=k)))
    groups.append(("z2xz2", make_group("finite", table=FIXTURE_TABLES["z2xz2"]())))
    groups.append(("s3", make_group("finite", table=FIXTURE_TABLES["s3"]())))
    groups.append(("q8", make_group("finite", table=FIXTURE_TABLES["q8"]())))
    return groups
