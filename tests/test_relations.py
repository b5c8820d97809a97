import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from csptopo import (
    ParseError,
    PreconditionError,
    PropertyFlags,
    Relation,
    ResourceLimitError,
    VertexSet,
    enumerate_solutions,
    parse_relation,
    parse_relations,
    relation_properties,
    schaefer_classify,
    vertexset_to_cnf,
)
from csptopo.relations import PAIR_MAX

from oracles import naive_relation_flags


def test_parse_single_block(nae):
    parsed = parse_relation("rel NAE 3\n001 010 011\n100 101 110\n")
    assert parsed.arity == 3
    assert parsed.tuples == nae.tuples
    assert parsed.name == "NAE"


def test_parse_collapses_duplicates():
    parsed = parse_relation("rel T 1\n1 1 1\n")
    assert parsed.tuples == frozenset({1})


def test_parse_empty_relation_allowed():
    parsed = parse_relation("rel EMPTY 2\n")
    assert parsed.arity == 2
    assert parsed.tuples == frozenset()


def test_parse_multiple_blocks_and_comments():
    text = "# comment\nrel A 1\n0 1\n\nrel B 2  # trailing\n00\n11\n"
    relations = parse_relations(text)
    assert [r.name for r in relations] == ["A", "B"]
    assert relations[1].tuples == frozenset({0, 3})


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("rel X 0\n", "arity"),
        ("rel X 2\n0a\n", "malformed"),
        ("rel X 2\n0\n", "bits"),
        ("01\n", "before"),
    ],
)
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_relations(text)
    assert fragment in str(err.value)
    assert "line" in str(err.value)


def test_arity_cap():
    with pytest.raises(ResourceLimitError):
        parse_relations("rel BIG 21\n")


# Flags pinned by the brute-force closure oracle worked out by hand:
# e.g. NAE fails horn since (100) AND (011) = (000) is not a member, and
# fails affine since 001 ^ 010 ^ 100 = 111 is not a member.

def test_nae_flags(nae):
    assert relation_properties(nae) == PropertyFlags(
        zero_valid=False, one_valid=False, horn=False,
        dual_horn=False, bijunctive=False, affine=False,
    )


def test_xor2_flags(xor2):
    # two-element relations are vacuously majority-closed, hence bijunctive
    assert relation_properties(xor2) == PropertyFlags(
        zero_valid=False, one_valid=False, horn=False,
        dual_horn=False, bijunctive=True, affine=True,
    )


def test_singleton_zero_flags():
    rel = Relation.of(3, ("000",))
    flags = relation_properties(rel)
    assert flags.zero_valid and flags.horn and flags.affine
    assert not flags.one_valid


def test_implication_flags(implication):
    assert relation_properties(implication) == PropertyFlags(
        zero_valid=True, one_valid=True, horn=True,
        dual_horn=True, bijunctive=True, affine=False,
    )


def test_r_zero_flags(r_zero):
    assert relation_properties(r_zero) == PropertyFlags(
        zero_valid=True, one_valid=False, horn=False,
        dual_horn=False, bijunctive=False, affine=False,
    )


def test_empty_relation_vacuous_closures():
    flags = relation_properties(Relation(2, frozenset()))
    assert flags == PropertyFlags(False, False, True, True, True, True)


@pytest.mark.parametrize("strings", [("0",), ("1",)])
def test_arity_one_singletons_are_bijunctive(strings):
    assert relation_properties(Relation.of(1, strings)).bijunctive


def test_flags_match_oracle_on_every_relation_up_to_arity_3():
    for k in (1, 2, 3):
        for mask in range(1 << (1 << k)):
            rel = Relation(k, frozenset(t for t in range(1 << k) if (mask >> t) & 1))
            assert relation_properties(rel) == naive_relation_flags(rel), rel


def test_flags_match_oracle_on_random_relations():
    rng = random.Random(41)
    for k in range(4, 8):
        for density in (0.05, 0.2, 0.5, 0.8, 0.97):
            for _ in range(6):
                tuples = frozenset(t for t in range(1 << k) if rng.random() < density)
                rel = Relation(k, tuples)
                assert relation_properties(rel) == naive_relation_flags(rel), rel


def _two_cnf_models(rng, k):
    clauses = [
        ((rng.randrange(k), rng.random() < 0.5), (rng.randrange(k), rng.random() < 0.5))
        for _ in range(rng.randint(1, 2 * k))
    ]
    return frozenset(
        t for t in range(1 << k)
        if all(any(((t >> v) & 1) == positive for v, positive in clause)
               for clause in clauses)
    )


def _coset(rng, k):
    points = {rng.randrange(1 << k)}
    for _ in range(rng.randint(0, k)):
        step = rng.randrange(1 << k)
        points |= {p ^ step for p in points}
    return frozenset(points)


def _closure(rng, k, op):
    members = set(rng.sample(range(1 << k), rng.randint(1, 6)))
    while True:
        grown = members | {op(a, b) for a in members for b in members}
        if grown == members:
            return frozenset(members)
        members = grown


def test_flags_match_oracle_on_closed_relations():
    rng = random.Random(42)
    builders = (
        _two_cnf_models,
        _coset,
        lambda rng, k: _closure(rng, k, int.__and__),
        lambda rng, k: _closure(rng, k, int.__or__),
    )
    seen = dict.fromkeys(("horn", "dual_horn", "bijunctive", "affine"), 0)
    for k in range(4, 7):
        for build in builders:
            for _ in range(10):
                rel = Relation(k, build(rng, k))
                flags = relation_properties(rel)
                assert flags == naive_relation_flags(rel), rel
                for name in seen:
                    seen[name] += flags.get(name)
    # the positive branch of every closure test was exercised
    assert min(seen.values()) >= 10, seen


def test_full_arity_12_relation_classifies_quickly():
    rel = Relation(12, frozenset(range(1 << 12)))
    start = time.perf_counter()
    flags = relation_properties(rel)
    assert time.perf_counter() - start < 2.0
    assert flags == PropertyFlags(True, True, True, True, True, True)


def test_relation_over_pair_cap_is_refused_fast():
    count = math.isqrt(2 * PAIR_MAX) + 2
    rel = Relation(count.bit_length(), frozenset(range(count)))
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        relation_properties(rel)
    assert time.perf_counter() - start < 0.5


def test_classify_nae(nae):
    verdict = schaefer_classify([nae])
    assert not verdict.tractable
    assert verdict.witness_condition is None


def test_classify_xor2_with_constants(xor2):
    verdict = schaefer_classify([xor2], with_constants=True)
    assert verdict.tractable
    # XOR2 is both 2-SAT-expressible and affine; the witness is the first
    # applicable condition in classification order.
    assert verdict.witness_condition == "bijunctive"
    assert verdict.per_relation_flags[0].affine


def test_classify_r_zero_both_modes(r_zero):
    without = schaefer_classify([r_zero], with_constants=False)
    assert without.tractable and without.witness_condition == "zero_valid"
    with_c = schaefer_classify([r_zero], with_constants=True)
    assert not with_c.tractable


def test_classify_set_needs_shared_condition(nae, xor2):
    assert not schaefer_classify([nae, xor2], with_constants=True).tractable


def test_classify_empty_set_rejected():
    with pytest.raises(PreconditionError):
        schaefer_classify([])


relations_strategy = st.integers(1, 4).flatmap(
    lambda k: st.sets(st.integers(0, (1 << k) - 1), max_size=1 << k).map(
        lambda tuples: Relation(k, frozenset(tuples))
    )
)


@settings(max_examples=60, deadline=None)
@given(relations_strategy, st.randoms(use_true_random=False))
def test_flags_invariant_under_coordinate_permutation(rel, rng):
    perm = list(range(rel.arity))
    rng.shuffle(perm)
    assert relation_properties(rel) == relation_properties(rel.permuted(perm))


@settings(max_examples=60, deadline=None)
@given(relations_strategy)
def test_complement_swaps_dual_flags(rel):
    flags = relation_properties(rel)
    flipped = relation_properties(rel.complement())
    assert flipped.zero_valid == flags.one_valid
    assert flipped.one_valid == flags.zero_valid
    assert flipped.horn == flags.dual_horn
    assert flipped.dual_horn == flags.horn
    assert flipped.bijunctive == flags.bijunctive
    assert flipped.affine == flags.affine


@settings(max_examples=60, deadline=None)
@given(relations_strategy)
def test_affine_flag_means_coset_structure(rel):
    flags = relation_properties(rel)
    if not flags.affine or not rel.tuples:
        return
    members = sorted(rel.tuples)
    assert len(members) & (len(members) - 1) == 0  # power of two
    base = members[0]
    shifted = {m ^ base for m in members}
    for a, b in itertools.product(shifted, repeat=2):
        assert a ^ b in shifted  # subspace, so rel is a coset


@pytest.mark.parametrize("strings", [("00", "01", "11"), ("000",), ("00", "10")])
def test_horn_witness_cnf_reproduces_relation(strings):
    rel = Relation.of(len(strings[0]), strings)
    assert relation_properties(rel).horn
    vset = VertexSet(rel.arity, rel.tuples)
    recovered = enumerate_solutions(vertexset_to_cnf(vset))
    assert recovered.members == rel.tuples
