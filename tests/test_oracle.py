import pytest

from helpers import (
    F2,
    F7,
    ball_vectors,
    three_block_code,
    two_block_code,
    two_level_code,
)
from whmetric import enumerator
from whmetric import oracle as oracle_module
from whmetric.bounds import singleton_bound
from whmetric.code import Limits, named_code
from whmetric.errors import ExhaustionError, ParameterError
from whmetric.metric import WeightedSpace
from whmetric.oracle import (
    ambient_ball_count,
    block_weight_enumerator,
    exact_capability,
    exact_min_weighted_distance,
    exhaustive_decoder_check,
    exhaustive_unique_correction_check,
    weighted_error_vectors,
)


def test_two_block_code_exact_values():
    space, gcc = two_block_code()
    code = gcc.as_linear_code()
    assert exact_min_weighted_distance(code, space) == 2
    assert exact_capability(code, space) == 1


def test_three_block_code_exact_values():
    space, gcc = three_block_code()
    code = gcc.as_linear_code()
    assert exact_min_weighted_distance(code, space) == 6
    assert exact_capability(code, space) == 2


def test_two_level_code_exact_values():
    space, gcc = two_level_code()
    code = gcc.as_linear_code()
    assert exact_min_weighted_distance(code, space) == 5
    assert exact_capability(code, space) == 2


def test_mds_code_meets_singleton_ceiling():
    space = WeightedSpace(7, (3, 3), (1, 2))
    rs = named_code("reed_solomon", F7, 6, 3)
    t = exact_capability(rs, space)
    assert t == 2
    assert t == singleton_bound(space, 3)


def test_capability_within_distance_bracket():
    for space, gcc in (two_block_code(), three_block_code(), two_level_code()):
        code = gcc.as_linear_code()
        d = exact_min_weighted_distance(code, space)
        t = exact_capability(code, space)
        assert (d - 1) // 2 <= t <= (d + space.scales[-1]) // 2 - 1


def test_unique_correction_check_brackets_capability():
    for space, gcc in (two_block_code(), two_level_code()):
        code = gcc.as_linear_code()
        t = exact_capability(code, space)
        assert exhaustive_unique_correction_check(code, space, 0)
        assert exhaustive_unique_correction_check(code, space, t)
        assert not exhaustive_unique_correction_check(code, space, t + 1)


def test_one_dimensional_code_capability():
    space = WeightedSpace(2, (3, 3), (1, 2))
    code = named_code("repetition", F2, 6, 1)
    cap = space.vector_capability((1,) * 6)
    for t in range(space.max_weight):
        assert exhaustive_unique_correction_check(code, space, t) == (t <= cap)


def test_ambient_count_matches_profile_formula():
    spaces = [
        WeightedSpace(2, (5, 4), (1, 3)),
        WeightedSpace(3, (3, 3), (2, 3)),
    ]
    for space in spaces:
        for t in range(space.max_weight + 1):
            assert ambient_ball_count(space, t) == space.ball_size(t)


def test_weighted_error_vectors_enumerate_the_ball():
    space = WeightedSpace(3, (2, 2), (1, 2))
    for t in range(space.max_weight + 1):
        got = sorted(weighted_error_vectors(space, t))
        assert got == sorted(ball_vectors(space, t))


def test_block_weight_enumerator_total():
    space, gcc = two_block_code()
    enum = block_weight_enumerator(gcc.as_linear_code(), space)
    assert sum(enum.values()) == 16
    assert enum[(0, 0)] == 1


def test_exhaustion_refusals():
    space = WeightedSpace(2, (3, 3), (1, 2))
    code = named_code("full", F2, 6, 6)
    tight = Limits(max_codewords=10, max_ambient=10)
    with pytest.raises(ExhaustionError):
        exact_min_weighted_distance(code, space, tight)
    with pytest.raises(ExhaustionError):
        exact_capability(code, space, tight)
    with pytest.raises(ExhaustionError):
        ambient_ball_count(space, 2, tight)
    space4, gcc4 = two_block_code()
    with pytest.raises(ExhaustionError):
        exhaustive_decoder_check(gcc4, 1, tight)


def test_distance_and_capability_share_one_scan(monkeypatch):
    space, gcc = three_block_code()
    code = gcc.as_linear_code()
    scans = []
    count = enumerator._packed_counts

    def counted(field, rows, blocks):
        scans.append(blocks)
        return count(field, rows, blocks)

    monkeypatch.setattr(enumerator, "_packed_counts", counted)
    assert exact_min_weighted_distance(code, space) == 6
    assert exact_capability(code, space) == 2
    assert len(scans) == 1
    block_weight_enumerator(code, space).clear()  # callers get a copy
    assert exact_capability(code, space) == 2
    # the cache never bypasses admission
    tight = Limits(max_codewords=code.field.order**code.k - 1)
    with pytest.raises(ExhaustionError):
        exact_min_weighted_distance(code, space, tight)
    with pytest.raises(ExhaustionError):
        exact_capability(code, space, tight)
    assert len(scans) == 1


def test_decoder_check_reports():
    space, gcc = two_block_code()
    ok = exhaustive_decoder_check(gcc, 1)
    assert ok.trials == 16 * 4
    assert ok.failures == 0 and ok.ok
    beyond = exhaustive_decoder_check(gcc, 2)
    assert beyond.failures > 0
    assert beyond.first_failure is not None
    codeword, error = beyond.first_failure
    assert len(codeword) == len(error) == 6


def test_decoder_check_two_level():
    space, gcc = two_level_code()
    report = exhaustive_decoder_check(gcc, 2)
    assert report.trials == 8 * 25
    assert report.failures == 0


def test_decoder_check_sampling_is_seeded():
    from helpers import hamming_concatenation

    space, gcc = hamming_concatenation()
    a = exhaustive_decoder_check(gcc, 1, seed=5, sample_size=10)
    b = exhaustive_decoder_check(gcc, 1, seed=5, sample_size=10)
    assert a.trials == b.trials == 10 * 8
    assert a.failures == b.failures == 0


def test_decoder_check_refuses_before_listing_an_error(monkeypatch):
    from helpers import hamming_concatenation

    space, gcc = hamming_concatenation()
    for t in (1, 4):  # the listed errors are the radius-t ball
        assert len(list(weighted_error_vectors(space, t))) == space.ball_size(t)

    def listed(*args):
        raise AssertionError("a refused check listed its errors")

    monkeypatch.setattr(oracle_module, "weighted_error_vectors", listed)
    with pytest.raises(ExhaustionError, match="96556900 trials"):
        exhaustive_decoder_check(gcc, 20)


@pytest.mark.parametrize("size", [0, -1, 2.5, "10", None])
def test_decoder_check_refuses_a_sample_size_that_is_not_positive(size):
    from helpers import hamming_concatenation

    space, gcc = hamming_concatenation()
    with pytest.raises(ParameterError, match="sample_size"):
        exhaustive_decoder_check(gcc, 1, sample_size=size)
