import random
from fractions import Fraction as F

import pytest

from enlargekit import finitelab as fl


@pytest.fixture()
def four_uniform():
    return fl.FiniteOutcomeSpace(("1", "2", "3", "4"), {w: F(1, 4) for w in "1234"})


@pytest.fixture()
def two_step_walk():
    space = fl.FiniteOutcomeSpace(("uu", "ud", "du", "dd"), {w: F(1, 4) for w in ("uu", "ud", "du", "dd")})
    filt = fl.FiniteFiltration((
        fl.trivial_partition(space.outcomes),
        fl.Partition((frozenset({"uu", "ud"}), frozenset({"du", "dd"}))),
        fl.discrete_partition(space.outcomes),
    ))
    walk = [
        {w: F(0) for w in space.outcomes},
        {"uu": F(1), "ud": F(1), "du": F(-1), "dd": F(-1)},
        {"uu": F(2), "ud": F(0), "du": F(0), "dd": F(-2)},
    ]
    return space, filt, walk


def test_space_validation():
    with pytest.raises(fl.FiniteLabError):
        fl.FiniteOutcomeSpace(("a", "b"), {"a": F(1, 2), "b": F(1, 3)})
    with pytest.raises(fl.FiniteLabError):
        fl.FiniteOutcomeSpace(("a", "a"), {"a": F(1)})


def test_partition_invariants():
    with pytest.raises(fl.FiniteLabError):
        fl.Partition((frozenset({"a", "b"}), frozenset({"b"})))
    with pytest.raises(fl.FiniteLabError):
        fl.Partition((frozenset(),))
    p = fl.Partition((frozenset({"a"}), frozenset({"b", "c"})))
    assert p.block_of("c") == frozenset({"b", "c"})


def test_join_with_trivial_and_self(four_uniform):
    space = four_uniform
    f_part = fl.Partition((frozenset({"1", "2"}), frozenset({"3", "4"})))
    F2 = fl.FiniteFiltration((f_part, fl.discrete_partition(space.outcomes)))
    trivial = fl.constant_filtration(fl.trivial_partition(space.outcomes), 2)
    assert fl.join_filtrations(F2, trivial).stages == F2.stages
    assert fl.join_filtrations(F2, F2).stages == F2.stages


def test_join_produces_singletons(four_uniform):
    space = four_uniform
    f_part = fl.Partition((frozenset({"1", "2"}), frozenset({"3", "4"})))
    h_part = fl.Partition((frozenset({"1", "3"}), frozenset({"2", "4"})))
    joined = f_part.join(h_part)
    assert joined.blocks == fl.discrete_partition(space.outcomes).blocks


def test_initial_enlargement_cases(four_uniform):
    space = four_uniform
    f_part = fl.Partition((frozenset({"1", "2"}), frozenset({"3", "4"})))
    filt = fl.FiniteFiltration((f_part,))
    const_x = {w: "same" for w in space.outcomes}
    assert fl.initial_enlargement(filt, const_x).stages == filt.stages
    inj = {w: w for w in space.outcomes}
    assert fl.initial_enlargement(filt, inj).stages[0].blocks == fl.discrete_partition(space.outcomes).blocks
    ind = {"1": 1, "2": 1, "3": 0, "4": 0}
    assert fl.initial_enlargement(filt, ind).stages[0].blocks == f_part.blocks


def test_conditional_expectation_block_means(four_uniform):
    space = four_uniform
    part = fl.Partition((frozenset({"1", "2"}), frozenset({"3", "4"})))
    f = {"1": F(1), "2": F(2), "3": F(3), "4": F(4)}
    ce, nulls = fl.conditional_expectation(f, part, space)
    assert ce == {"1": F(3, 2), "2": F(3, 2), "3": F(7, 2), "4": F(7, 2)}
    assert nulls == []
    # constant f unchanged; singleton partition returns f itself
    cf, _ = fl.conditional_expectation({w: F(5) for w in space.outcomes}, part, space)
    assert all(v == F(5) for v in cf.values())
    sing, _ = fl.conditional_expectation(f, fl.discrete_partition(space.outcomes), space)
    assert sing == f


def test_conditional_expectation_flags_null_blocks():
    space = fl.FiniteOutcomeSpace(("a", "b"), {"a": F(1), "b": F(0)})
    part = fl.discrete_partition(space.outcomes)
    ce, nulls = fl.conditional_expectation({"a": F(2), "b": F(9)}, part, space)
    assert ce["b"] == F(0)
    assert nulls == [frozenset({"b"})]


def test_tower_property_exact(four_uniform):
    space = four_uniform
    fine = fl.Partition((frozenset({"1"}), frozenset({"2"}), frozenset({"3", "4"})))
    coarse = fl.Partition((frozenset({"1", "2"}), frozenset({"3", "4"})))
    f = {"1": F(7, 3), "2": F(-1, 2), "3": F(4), "4": F(11, 5)}
    inner, _ = fl.conditional_expectation(f, fine, space)
    towered, _ = fl.conditional_expectation(inner, coarse, space)
    direct, _ = fl.conditional_expectation(f, coarse, space)
    assert towered == direct


def test_doob_decomposition_examples(two_step_walk):
    space, filt, walk = two_step_walk
    # martingale input: predictable part identically zero
    mart, fv = fl.doob_decomposition(walk, filt, space)
    assert all(all(v == 0 for v in stage.values()) for stage in fv)
    # deterministic increasing process: martingale part stays at X_0
    det = [{w: F(k) for w in space.outcomes} for k in range(3)]
    mart2, fv2 = fl.doob_decomposition(det, filt, space)
    assert all(all(v == 0 for v in stage.values()) for stage in mart2)
    # drifted walk: slope exactly 1/3 per step when P(up) = 2/3
    space3 = fl.FiniteOutcomeSpace(
        ("uu", "ud", "du", "dd"),
        {"uu": F(4, 9), "ud": F(2, 9), "du": F(2, 9), "dd": F(1, 9)},
    )
    mart3, fv3 = fl.doob_decomposition(walk, filt, space3)
    assert fv3[1] == {w: F(1, 3) for w in space3.outcomes}
    assert fv3[2] == {w: F(2, 3) for w in space3.outcomes}
    assert fl.is_exact_martingale(mart3, filt, space3)


def test_doob_rejects_non_adapted(two_step_walk):
    space, filt, walk = two_step_walk
    not_adapted = [walk[1], walk[1], walk[2]]
    with pytest.raises(fl.FiniteLabError):
        fl.doob_decomposition(not_adapted, filt, space)


def test_likelihood_trivial_information(two_step_walk):
    space, filt, _ = two_step_walk
    setup = fl.ProductSetup(space, filt, fl.constant_filtration(fl.trivial_partition(space.outcomes), 3))
    z = fl.likelihood_process(setup)
    assert all(all(v == 1 for v in stage.values()) for stage in z)


def test_likelihood_independent_information(two_step_walk):
    # X depends only on the second step: independent of stage-1 information
    space, filt, _ = two_step_walk
    X = {"uu": "u", "ud": "d", "du": "u", "dd": "d"}
    setup = fl.enlargement_setup(space, fl.FiniteFiltration(filt.stages[:2]), X)
    z = fl.likelihood_process(setup)
    assert all(v == 1 for v in z[0].values())
    assert all(v == 1 for v in z[1].values())


def test_likelihood_enumeration_oracle(four_uniform):
    space = four_uniform
    f_part = fl.Partition((frozenset({"1", "2"}), frozenset({"3", "4"})))
    filt = fl.FiniteFiltration((f_part,))
    X = {"1": 1, "2": 1, "3": 0, "4": 0}
    setup = fl.enlargement_setup(space, filt, X)
    z = fl.likelihood_process(setup)
    # direct ratio of measures on the single product stage
    stage = setup.product_stage(0)
    for block in stage.blocks:
        expect = setup.pbar_block(block) / setup.qbar_block(block)
        for pair in block:
            assert z[0][pair] == expect
    assert fl.likelihood_is_decoupled_martingale(setup)


def test_likelihood_absolute_continuity_violation(four_uniform):
    space = four_uniform
    filt = fl.FiniteFiltration((fl.discrete_partition(space.outcomes),))
    X = {"1": 1, "2": 1, "3": 0, "4": 0}
    r_bad = {"1": F(0), "2": F(0), "3": F(1, 2), "4": F(1, 2)}  # R misses X=1
    setup = fl.enlargement_setup(space, filt, X, R=r_bad)
    ok, witness = fl.check_absolute_continuity(setup)
    assert not ok and witness is not None
    with pytest.raises(fl.AbsoluteContinuityError):
        fl.likelihood_process(setup)


def test_girsanov_trivial_and_independent_information(two_step_walk):
    space, filt, walk = two_step_walk
    trivial = fl.ProductSetup(space, filt, fl.constant_filtration(fl.trivial_partition(space.outcomes), 3))
    g = fl.discrete_girsanov(walk, trivial)
    assert all(all(v == 0 for v in c.values()) for c in g.compensator)
    assert g.compensated == tuple(walk)
    # independent X: compensator identically zero
    X = {"uu": "u", "ud": "d", "du": "u", "dd": "d"}
    setup = fl.enlargement_setup(space, fl.FiniteFiltration(filt.stages[:2]), X)
    g2 = fl.discrete_girsanov(walk[:2], setup)
    assert all(all(v == 0 for v in c.values()) for c in g2.compensator)
    assert g2.is_enlarged_martingale


def test_girsanov_terminal_sign_enumeration(two_step_walk):
    space, filt, walk = two_step_walk
    X = {"uu": "pos", "ud": "zero", "du": "zero", "dd": "neg"}
    setup = fl.enlargement_setup(space, filt, X)
    g = fl.discrete_girsanov(walk, setup)
    assert g.is_enlarged_martingale
    # knowing the terminal sign forces the first step on the extreme atoms
    assert g.compensator[1] == {"uu": F(1), "ud": F(0), "du": F(0), "dd": F(-1)}
    assert g.compensator[0] == {w: F(0) for w in space.outcomes}


def test_girsanov_rejects_non_martingale(two_step_walk):
    space, filt, _ = two_step_walk
    setup = fl.ProductSetup(space, filt, fl.constant_filtration(fl.trivial_partition(space.outcomes), 3))
    drifted = [
        {w: F(0) for w in space.outcomes},
        {"uu": F(2), "ud": F(2), "du": F(-1), "dd": F(-1)},
        {"uu": F(3), "ud": F(1), "du": F(0), "dd": F(-2)},
    ]
    with pytest.raises(fl.FiniteLabError):
        fl.discrete_girsanov(drifted, setup)


def test_jacod_tables(four_uniform):
    space = four_uniform
    f_part = fl.Partition((frozenset({"1", "2"}), frozenset({"3", "4"})))
    filt = fl.FiniteFiltration((f_part,))
    # X independent of the stage: density table identically 1
    x_ind = {"1": "a", "2": "b", "3": "a", "4": "b"}
    rep = fl.jacod_discrete_checks(space, filt, x_ind)
    assert rep.absolutely_continuous
    for row in rep.density_tables[0].values():
        assert all(v == 1 for v in row.values())
    # X measurable at stage 0: mass concentration 1/law on the matching value
    x_meas = {"1": "L", "2": "L", "3": "R", "4": "R"}
    rep2 = fl.jacod_discrete_checks(space, filt, x_meas)
    table = rep2.density_tables[0]
    left = table[frozenset({"1", "2"})]
    assert left["L"] == F(2) and left["R"] == F(0)
    # hand enumeration for a mixed case
    x_mixed = {"1": "a", "2": "b", "3": "a", "4": "a"}
    rep3 = fl.jacod_discrete_checks(space, filt, x_mixed)
    row = rep3.tables[0][frozenset({"1", "2"})]
    assert row["a"] == F(1, 2) and row["b"] == F(1, 2)


def test_countable_enlargement_reduction(four_uniform):
    space = four_uniform
    filt = fl.FiniteFiltration((fl.Partition((frozenset({"1", "2"}), frozenset({"3", "4"})),),))
    events = [frozenset({"1"}), frozenset({"3"})]
    assert fl.countable_enlargement_reduces(filt, events)
    with pytest.raises(fl.FiniteLabError):
        fl.countable_enlargement_reduces(filt, [frozenset({"1", "2"}), frozenset({"2"})])


def test_instance_text_roundtrip(tmp_path):
    text = """
    # four-outcome example
    outcomes: a b c d
    prob: 1/4 1/4 1/4 1/4
    stage: {a,b} {c,d}
    stage: {a} {b} {c} {d}
    X: a=1 b=1 c=0 d=0
    """
    space, filt, xmap = fl.parse_instance(text)
    assert space.outcomes == ("a", "b", "c", "d")
    assert len(filt) == 2
    assert xmap["a"] == "1" and xmap["c"] == "0"
    setup = fl.enlargement_setup(space, filt, xmap)
    ok, _ = fl.check_absolute_continuity(setup)
    assert ok
    with pytest.raises(fl.FiniteLabError):
        fl.parse_instance("outcomes: a b\nprob: 1/2")


def test_random_instances_universal_properties():
    # discrete X with R = P: absolute continuity always holds; the
    # likelihood is an exact decoupled-measure martingale; compensated
    # processes are exact enlarged-filtration martingales
    rng = random.Random(987)
    for _ in range(60):
        space, filt, xmap = fl.random_instance(rng)
        setup = fl.enlargement_setup(space, filt, xmap)
        ok, witness = fl.check_absolute_continuity(setup)
        assert ok, witness
        assert fl.likelihood_is_decoupled_martingale(setup)
        mart = fl.random_adapted_martingale(space, filt, rng)
        assert fl.is_exact_martingale(mart, filt, space)
        g = fl.discrete_girsanov(mart, setup)
        assert g.is_enlarged_martingale
