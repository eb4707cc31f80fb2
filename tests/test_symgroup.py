import itertools
import math
from fractions import Fraction
from functools import partial

import pytest
from conftest import compose, inverse

from hitchin_supports import symgroup
from hitchin_supports.symgroup import (
    ClassFunction,
    ProductClassFunction,
    SymgroupError,
    canonical_permutation,
    cell_permutation,
    class_size,
    complete_graph,
    cycle_type,
    edge_action,
    induced_character_oracle,
    partition_cell_permutation,
    partition_lattice_character,
    partitions_of,
    restrict_to_young,
    sign_of_type,
    top_homology_character,
)


def _inner(a, b) -> Fraction:
    """Orthogonality pairing (1/|G|) sum over classes of class size * a * b,
    on S_r or on a Young subgroup (a class there is one cycle type per factor)."""
    assert type(a) is type(b) and a.values.keys() == b.values.keys()
    sizes = {
        key: math.prod(map(class_size, key)) if isinstance(a, ProductClassFunction) else class_size(key)
        for key in a.values
    }
    return Fraction(sum(n * a.values[k] * b.values[k] for k, n in sizes.items()), sum(sizes.values()))


# ---------------------------------------------------------------------------
# classes and representatives
# ---------------------------------------------------------------------------


def test_partitions_of_small_r():
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions_of(6)) == 11


def test_class_sizes_sum_to_group_order():
    for r in (3, 4, 5, 6):
        assert sum(class_size(lam) for lam in partitions_of(r)) == math.factorial(r)


def test_canonical_permutation_has_its_cycle_type():
    for r in (3, 4, 5):
        for lam in partitions_of(r):
            assert cycle_type(canonical_permutation(lam)) == lam


def test_representative_traces_agree_across_class():
    # characters are class functions: conjugate representatives give equal traces
    import random

    from hitchin_supports.complexes import cographic_complex
    from hitchin_supports.homology import TopHomologyAction

    rng = random.Random(3)
    g = complete_graph(4)
    action = TopHomologyAction(cographic_complex(g))

    def trace_for(vperm):
        return action.trace(cell_permutation(vperm, g))

    for lam in partitions_of(4):
        rep = canonical_permutation(lam)
        base = trace_for(rep)
        for _ in range(3):
            x = list(range(4))
            rng.shuffle(x)
            x = tuple(x)
            conj = compose(compose(x, rep), inverse(x))
            assert trace_for(conj) == base


# ---------------------------------------------------------------------------
# edge action
# ---------------------------------------------------------------------------


def test_identity_edge_action():
    g = complete_graph(3)
    assert edge_action((0, 1, 2), g) == {0: 0, 1: 1, 2: 2}


def test_transposition_on_k3_edges():
    g = complete_graph(3)  # labels: 0={0,1}, 1={0,2}, 2={1,2}
    mapping = edge_action((1, 0, 2), g)
    assert mapping == {0: 0, 1: 2, 2: 1}


def test_three_cycle_on_k3_edges():
    g = complete_graph(3)
    mapping = edge_action((1, 2, 0), g)
    # {0,1}->{1,2}, {0,2}->{0,1}, {1,2}->{0,2}
    assert mapping == {0: 2, 1: 0, 2: 1}


def test_edge_action_multiplicity_mismatch():
    from hitchin_supports.multigraph import Multigraph

    g = Multigraph(2, ((0, 0, 0), (0, 1, 1)))
    with pytest.raises(SymgroupError, match="multiplicity"):
        edge_action((1, 0), g)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def test_top_character_r2_convention_is_zero():
    chi = top_homology_character(2)
    assert all(v == 0 for v in chi.values.values())


@pytest.mark.parametrize("r", [1, 7])
def test_top_character_refuses_r_outside_2_to_6(r):
    with pytest.raises(SymgroupError, match="between 2 and 6"):
        top_homology_character(r)


def test_top_character_r3_values():
    chi = top_homology_character(3)
    assert chi.values == {(1, 1, 1): 2, (2, 1): 0, (3,): -1}


def test_top_character_r4_dimension():
    chi = top_homology_character(4)
    assert chi.values[(1, 1, 1, 1)] == 6  # (r-1)!


def test_oracle_r2_is_sign():
    chi = induced_character_oracle(2)
    assert chi.values == {(1, 1): 1, (2,): -1}


def test_oracle_r3_values():
    chi = induced_character_oracle(3)
    assert chi.values == {(1, 1, 1): 2, (2, 1): 0, (3,): -1}


def test_oracle_r4_identity_value():
    chi = induced_character_oracle(4)
    assert chi.values[(1, 1, 1, 1)] == 6


def _brute_force_induced(r: int) -> dict:
    """Frobenius' formula term by term: (1/r) sum of omega(x s x^-1) over every
    x in S_r with x s x^-1 a power c^j of the r-cycle, omega(c^j) = e^(2 pi i j/r);
    the value is real, so the cosines are summed in floating point."""
    cycle = tuple((i + 1) % r for i in range(r))
    powers, current = {}, tuple(range(r))
    for j in range(r):
        powers[current] = j
        current = compose(cycle, current)
    everyone = list(itertools.permutations(range(r)))
    values = {}
    for lam in partitions_of(r):
        g = canonical_permutation(lam)
        hits = [powers.get(compose(compose(x, g), inverse(x))) for x in everyone]
        total = sum(math.cos(2 * math.pi * j / r) for j in hits if j is not None) / r
        values[lam] = round(total)
        assert abs(total - values[lam]) < 1e-9, (r, lam, total)
    return values


@pytest.mark.parametrize("r", range(2, 8))
def test_oracle_equals_a_brute_force_count_of_conjugates(r):
    assert induced_character_oracle(r).values == _brute_force_induced(r)


@pytest.mark.parametrize("r", range(2, 12))
def test_oracle_has_degree_r_minus_1_factorial_and_no_trivial_part(r):
    # Lie_r has dimension (r-1)!, never contains the trivial character, and
    # contains the sign character only at r = 2, where it is the sign
    chi = induced_character_oracle(r)
    trivial = ClassFunction(r, {lam: 1 for lam in partitions_of(r)})
    sign = ClassFunction(r, {lam: sign_of_type(lam) for lam in partitions_of(r)})
    assert chi.values[(1,) * r] == math.factorial(r - 1)
    assert _inner(chi, trivial) == 0
    assert _inner(chi, sign) == (1 if r == 2 else 0)


def test_oracle_refuses_r_below_1():
    assert induced_character_oracle(1).values == {(1,): 1}
    with pytest.raises(SymgroupError, match="at least 1"):
        induced_character_oracle(0)


def test_top_character_equals_oracle_r3_r4():
    for r in (3, 4):
        assert top_homology_character(r).values == induced_character_oracle(r).values


def test_partition_lattice_character_equals_the_cographic_one():
    # two complexes on two ground sets, both sgn (x) Lie_r (Stanley 1982; Hanlon 1981)
    for r in (4, 5, 6):
        lattice = partition_lattice_character(r)
        assert lattice.values[(1,) * r] == math.factorial(r - 1)
        assert lattice.values == top_homology_character(r).values, r


def test_partition_cell_permutation_acts_on_blocks():
    from hitchin_supports.complexes import proper_partitions

    cells = proper_partitions(3)  # 12|3, 13|2, 1|23
    assert partition_cell_permutation((0, 1, 2), 3) == (0, 1, 2)
    # swapping 1 and 2 fixes 12|3 and exchanges 13|2 with 1|23
    image = partition_cell_permutation((1, 0, 2), 3)
    assert [cells[i] for i in image] == [((1, 2), (3,)), ((1,), (2, 3)), ((1, 3), (2,))]
    with pytest.raises(SymgroupError):
        partition_cell_permutation((0, 0, 1), 3)
    with pytest.raises(SymgroupError):
        partition_lattice_character(7)


def test_character_is_irreducible_for_r3():
    chi = induced_character_oracle(3)
    assert _inner(chi, chi) == 1


def test_trivial_character_inner_product():
    triv = ClassFunction(3, {lam: 1 for lam in partitions_of(3)})
    assert _inner(triv, triv) == 1


CLASS_FUNCTIONS = {
    **{f"top_homology_character({r})": partial(top_homology_character, r) for r in range(2, 7)},
    **{f"partition_lattice_character({r})": partial(partition_lattice_character, r) for r in range(3, 7)},
    **{f"induced_character_oracle({r})": partial(induced_character_oracle, r) for r in range(2, 12)},
    "twist_by_sign": lambda: induced_character_oracle(4).twist_by_sign(),
    "restrict_to_young": lambda: restrict_to_young(top_homology_character(4), (2, 2)),
}


@pytest.mark.parametrize("name", CLASS_FUNCTIONS)
def test_every_character_value_is_an_int(name):
    chi = CLASS_FUNCTIONS[name]()
    assert chi.values and all(type(v) is int for v in chi.values.values()), chi.values


@pytest.mark.parametrize(
    "value", [Fraction(1, 2), Fraction(2), 2.0], ids=["half", "integral-fraction", "float"]
)
def test_class_function_refuses_a_value_that_is_not_an_int(value):
    with pytest.raises(SymgroupError, match="int"):
        ClassFunction(3, {(3,): value, (2, 1): 0, (1, 1, 1): 2})


def test_oracle_refuses_a_class_sum_that_r_does_not_divide(monkeypatch):
    # on type (d, ..., d), |class| divides (r-1)!: the class holds a power of
    # the r-cycle, whose centraliser holds the cycle.  So only a Moebius value
    # that is not an integer leaves a remainder, first at type (3)
    monkeypatch.setattr(symgroup, "_mobius", lambda n: Fraction(1, 2))
    with pytest.raises(SymgroupError, match="not an integer"):
        induced_character_oracle(3)


def test_sign_twist_toggle():
    chi = induced_character_oracle(3)
    twisted = chi.twist_by_sign()
    assert twisted.values[(2, 1)] == -chi.values[(2, 1)]
    assert twisted.values[(3,)] == chi.values[(3,)]
    assert sign_of_type((2, 1)) == -1
    assert sign_of_type((3,)) == 1


# ---------------------------------------------------------------------------
# Young restriction
# ---------------------------------------------------------------------------


def test_restriction_to_s2_of_r3_character():
    chi = top_homology_character(3)
    res = restrict_to_young(chi, (2, 1))
    assert res.values[((1, 1), (1,))] == 2
    assert res.values[((2,), (1,))] == 0
    # decomposes as trivial + sign on S_2 x S_1
    trivial = {((1, 1), (1,)): 1, ((2,), (1,)): 1}
    sign = {((1, 1), (1,)): 1, ((2,), (1,)): -1}
    assert _inner(res, ProductClassFunction((2, 1), trivial)) == 1
    assert _inner(res, ProductClassFunction((2, 1), sign)) == 1


def test_restriction_all_parts_distinct_gives_dimension():
    chi = top_homology_character(3)
    res = restrict_to_young(chi, (1, 1, 1))
    assert res.values[((1,), (1,), (1,))] == chi.values[(1, 1, 1)]
    assert len(res.values) == 1


def test_restriction_rejects_bad_multiplicities():
    chi = top_homology_character(3)
    with pytest.raises(SymgroupError):
        restrict_to_young(chi, (2, 2))


def test_json_keys_use_plus_notation():
    chi = induced_character_oracle(3)
    doc = chi.to_json_dict()
    assert set(doc) == {"1+1+1", "2+1", "3"}
    assert doc["1+1+1"] == 2
