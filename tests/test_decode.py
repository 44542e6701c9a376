import hashlib
import os
import random
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    F2,
    hamming_concatenation,
    mixed_code_from_parity_mother,
    three_block_code,
    two_block_code,
    two_level_code,
)
from whmetric import cli
from whmetric.code import FAIL, Limits, NestedChain, PolyalphabeticCode, named_code
from whmetric.construct import build_gcc, outer_code
from whmetric.decode import gcc_decode, gmd_decode
from whmetric.errors import ParameterError
from whmetric.field import make_prime_field
from whmetric.metric import WeightedSpace
from whmetric.oracle import (
    exact_capability,
    exact_min_weighted_distance,
    exhaustive_decoder_check,
    weighted_error_vectors,
)


def test_gmd_all_symbols_correct():
    outer = mixed_code_from_parity_mother(2)
    word = outer.encode((1, 0, 1))
    symbols = outer.symbols(word)
    result = gmd_decode(outer, symbols, [3, 2, 1])
    assert result == word


def test_gmd_recovers_from_one_unreliable_wrong_block():
    outer = mixed_code_from_parity_mother(2)  # block distance 2
    word = outer.encode((1, 1, 0))
    symbols = list(outer.symbols(word))
    wrong = tuple(1 - x for x in symbols[0])
    symbols[0] = wrong
    # the wrong block carries reliability 0 (an inner failure), so the
    # erasure trial at one erasure recovers the transmitted word
    result = gmd_decode(outer, symbols, [0, 1, 2])
    assert result == word


def test_gmd_without_guarantee_still_returns_something_or_fails():
    outer = mixed_code_from_parity_mother(2)
    word = outer.encode((0, 1, 1))
    symbols = list(outer.symbols(word))
    symbols[1] = tuple(1 - x for x in symbols[1])
    symbols[2] = tuple(1 - x for x in symbols[2])
    result = gmd_decode(outer, symbols, [1, 9, 9])
    assert result is FAIL or result != word or result == word  # no crash contract
    # with confident lies on two of three blocks the transmitted word
    # cannot win; make sure we did not magically return it
    if result is not FAIL:
        assert result != word


def test_gmd_trial_zero_matches_plain_block_decoding():
    outer = mixed_code_from_parity_mother(2)
    for msg in product(range(2), repeat=3):
        word = outer.encode(msg)
        symbols = outer.symbols(word)
        plain = outer.erasure_decode(word, set())
        assert plain == word
        assert gmd_decode(outer, symbols, [1, 1, 1]) == word


def test_gmd_validates_inputs():
    outer = mixed_code_from_parity_mother(2)
    word = outer.encode((1, 0, 0))
    symbols = outer.symbols(word)
    with pytest.raises(ParameterError):
        gmd_decode(outer, symbols, [1, 1])
    with pytest.raises(ParameterError):
        gmd_decode(outer, symbols, [1, 1, -1])
    with pytest.raises(ParameterError):
        gmd_decode(outer, symbols[:2] + ((0, 0, 0, 0),), [1, 1, 1])


@pytest.mark.parametrize("bad", ["1", 1.0, float("nan"), None])
def test_gmd_refuses_a_reliability_that_is_not_a_non_negative_integer(bad):
    outer = mixed_code_from_parity_mother(2)
    symbols = outer.symbols(outer.encode((1, 0, 0)))
    with pytest.raises(ParameterError):
        gmd_decode(outer, symbols, [1, bad, 1])



@pytest.mark.parametrize(
    "symbols, reliabilities",
    [([1, 2, 3], [1, 1, 1]), (5, [1, 1, 1]), (((0,), (0, 0), (0, 0, 0)), 5)],
)
def test_gmd_refuses_arguments_that_are_not_sequences(symbols, reliabilities):
    outer = mixed_code_from_parity_mother(2)
    with pytest.raises(ParameterError, match="must be sequences"):
        gmd_decode(outer, symbols, reliabilities)


@pytest.mark.parametrize("received", [5, None, 1.5])
def test_gcc_decode_refuses_a_received_word_that_is_not_a_sequence(received):
    space, gcc = hamming_concatenation()
    with pytest.raises(ParameterError, match="must be a sequence"):
        gcc_decode(gcc, received)


def test_gmd_ranks_symbols_given_as_lists_as_it_ranks_tuples():
    # rs4's first outer code: [4, 2] Reed-Solomon over GF(8) as 3-bit symbols
    cfg = cli.parse_config(os.path.join(PERFBENCH_CONFIGS, "rs4.cfg"))
    outer = cli.build_gcc_from_config(cfg).outers[0]
    q = outer.field.order
    rng = random.Random(25)
    for _ in range(300):
        word = outer.encode([rng.randrange(q) for _ in range(outer.k)])
        symbols = list(outer.symbols(word))
        for l in rng.sample(range(outer.n_symbols), 2):
            symbols[l] = tuple(rng.randrange(q) for _ in symbols[l])
        alphas = [rng.randrange(8) for _ in symbols]
        expected = gmd_decode(outer, symbols, alphas)
        assert gmd_decode(outer, [list(sym) for sym in symbols], alphas) == expected


def test_clean_word_decodes_with_maximal_reliabilities():
    space, gcc = two_block_code()
    word = gcc.encode(gcc.split_message((1, 0, 1, 1)))
    report = gcc_decode(gcc, word)
    assert report.ok
    assert report.codeword == word
    expected = [
        space.scales[l] * gcc.chains[l].codes[0].min_distance()
        for l in range(space.m)
    ]
    assert report.levels[0].reliabilities == expected


def test_codeword_idempotence():
    for space, gcc in (three_block_code(), two_block_code(), two_level_code()):
        for flat in list(product(range(2), repeat=gcc.k))[:16]:
            word = gcc.encode(gcc.split_message(flat))
            report = gcc_decode(gcc, word)
            assert report.ok and report.codeword == word


def test_two_block_code_corrects_all_errors_within_floor():
    space, gcc = two_block_code()
    errors = list(weighted_error_vectors(space, gcc.capability_floor))
    assert len(errors) == 4
    for flat in product(range(2), repeat=gcc.k):
        word = gcc.encode(gcc.split_message(flat))
        for e in errors:
            noisy = tuple(a ^ b for a, b in zip(word, e))
            report = gcc_decode(gcc, noisy)
            assert report.ok and report.codeword == word


def test_two_level_code_corrects_all_errors_within_floor():
    space, gcc = two_level_code()
    errors = list(weighted_error_vectors(space, 2))
    assert len(errors) == 25
    for flat in product(range(2), repeat=gcc.k):
        word = gcc.encode(gcc.split_message(flat))
        for e in errors:
            noisy = tuple(a ^ b for a, b in zip(word, e))
            report = gcc_decode(gcc, noisy)
            assert report.ok and report.codeword == word


def test_reliabilities_stay_within_bounds():
    space, gcc = two_level_code()
    for noisy in _noisy_words(space, gcc, radius=3, limit=60):
        report = gcc_decode(gcc, noisy)
        for j, level in enumerate(report.levels):
            for l, alpha in enumerate(level.reliabilities):
                top = space.scales[l] * gcc.chains[l].codes[j].min_distance()
                assert 0 <= alpha <= top


def _noisy_words(space, gcc, radius, limit):
    base = gcc.encode(gcc.split_message((1,) * gcc.k))
    out = []
    for e in weighted_error_vectors(space, radius):
        out.append(tuple(a ^ b for a, b in zip(base, e)))
        if len(out) >= limit:
            break
    return out


def test_beyond_floor_never_crashes_and_reports_status():
    space, gcc = two_block_code()
    word = gcc.encode(gcc.split_message((1, 1, 1, 1)))
    for e in weighted_error_vectors(space, 3):
        noisy = tuple(a ^ b for a, b in zip(word, e))
        report = gcc_decode(gcc, noisy)
        assert report.status == "ok" or report.status.startswith("outer-failure-at-level-")


def test_outer_failure_status_is_reported():
    # an outer code with a single codeword far from everything: feed
    # symbols that no erasure trial can match
    space, gcc = two_level_code()
    # corrupt beyond any guarantee: flip both whole blocks
    word = gcc.encode(gcc.split_message((1, 0, 1)))
    noisy = tuple(1 - x for x in word)
    report = gcc_decode(gcc, noisy)
    assert report.status == "ok" or report.status.startswith("outer-failure-at-level-")


def test_sampled_recipe_decoding():
    space, gcc = hamming_concatenation()
    word = gcc.encode(gcc.split_message(tuple(i % 2 for i in range(18))))
    for e in weighted_error_vectors(space, 1):
        noisy = tuple(a ^ b for a, b in zip(word, e))
        report = gcc_decode(gcc, noisy)
        assert report.ok and report.codeword == word


def test_ternary_code_corrects_all_errors_within_floor():
    F3 = make_prime_field(3)
    space = WeightedSpace(3, (3, 3), (1, 2))
    chains = [
        NestedChain([named_code("repetition", F3, 3, 1)]),
        NestedChain([named_code("full", F3, 3, 3)]),
    ]
    gcc = build_gcc(space, chains, [outer_code(F3, (1, 3))])
    assert gcc.capability_floor == 1
    report = exhaustive_decoder_check(gcc, 1)
    assert report.trials == 81 * 7
    assert report.failures == 0


def test_distance_three_outer_uses_error_trials():
    # outer distance 3 forces erasure trials that tolerate symbol errors,
    # exercising the exhaustive-scan branch of the erasure decoder
    space = WeightedSpace(2, (3, 3, 3), (1, 2, 3))
    chains = [NestedChain([named_code("repetition", F2, 3, 1)]) for _ in range(3)]
    outer = PolyalphabeticCode(F2, (1, 1, 1), [(1, 1, 1)])
    gcc = build_gcc(space, chains, [outer])
    assert (gcc.designed_distance, gcc.capability_floor) == (18, 8)
    code = gcc.as_linear_code()
    assert exact_min_weighted_distance(code, space) == 18
    assert exact_capability(code, space) == 8
    report = exhaustive_decoder_check(gcc, 8)
    assert report.failures == 0


def test_code_built_under_wider_limits_decodes():
    # the outer code has 2^22 words, past the default limit: decoding
    # works to the distances the build admitted, and does not refuse
    space = WeightedSpace(2, (11, 11, 11), (1, 2, 3))
    chains = [NestedChain([named_code("full", F2, 11)]) for _ in range(3)]
    outer = outer_code(F2, (11, 11, 11), "reed_solomon", 2)
    gcc = build_gcc(space, chains, [outer], Limits(max_codewords=1 << 23))
    word = gcc.encode([tuple(i % 2 for i in range(22))])
    error = (1,) + (0,) * 32
    report = gcc_decode(gcc, tuple((a + e) % 2 for a, e in zip(word, error)))
    assert report.ok and report.codeword == word


def test_report_serializes_to_json():
    import json

    space, gcc = two_block_code()
    word = gcc.encode(gcc.split_message((0, 1, 1, 0)))
    report = gcc_decode(gcc, word)
    payload = json.loads(report.to_json())
    assert payload["status"] == "ok"
    assert payload["codeword"] == list(word)
    assert len(payload["levels"]) == 1
    assert len(payload["levels"][0]["inner"]) == 2


CONSTRUCTIONS = {
    "two_block": two_block_code,
    "three_block": three_block_code,
    "two_level": two_level_code,
    "hamming_concatenation": hamming_concatenation,
}


@lru_cache(maxsize=None)
def _construction(name):
    return CONSTRUCTIONS[name]()


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_errors_within_the_floor_are_corrected(name, data):
    space, gcc = _construction(name)
    q, n = space.q, space.n
    message = tuple(data.draw(st.lists(st.integers(0, q - 1), min_size=gcc.k, max_size=gcc.k)))
    word = gcc.encode(gcc.split_message(message))
    # fill positions in a drawn order while the weight stays within a
    # drawn budget of at most the floor
    budget = data.draw(st.integers(0, gcc.capability_floor))
    order = data.draw(st.permutations(range(n)))
    values = data.draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))
    error = [0] * n
    for p, value in zip(order, values):
        error[p] = value
        if space.vector_weight(error) > budget:
            error[p] = 0
    noisy = tuple((a + e) % q for a, e in zip(word, error))
    report = gcc_decode(gcc, noisy)
    assert report.ok and report.codeword == word


PERFBENCH_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "configs")

# Recorded at the commit before the decoders' products were packed into
# integer lanes (whose outputs must be byte-identical), from the stream
# that _pinned_stream draws below.
PINNED_REPORTS_SHA256 = "558a798a63f10c7e67e4a7be94c9003be2a24e5528b22881d2ad2600f0018242"


def _pinned_stream(rng, gcc, count):
    """``count`` (sent, received, beyond) triples: a random codeword plus
    an error whose weight is filled, in a random coordinate order, up to
    a budget of 0..floor, or floor+1..floor+2 for one word in four."""
    space = gcc.space
    q, floor = space.q, gcc.capability_floor
    out = []
    for i in range(count):
        message = tuple(rng.randrange(q) for _ in range(gcc.k))
        sent = gcc.encode(gcc.split_message(message))
        beyond = i % 4 == 3
        budget = rng.randint(floor + 1, floor + 2) if beyond else rng.randint(0, floor)
        order = list(range(gcc.n))
        rng.shuffle(order)
        error = [0] * gcc.n
        for p in order:
            error[p] = rng.randrange(1, q)
            if space.vector_weight(error) > budget:
                error[p] = 0
        out.append((sent, tuple((a + e) % q for a, e in zip(sent, error)), beyond))
    return out


def test_decode_reports_match_the_pinned_digest():
    digest = hashlib.sha256()
    for tag in ("rs4", "hc", "q7"):
        cfg = cli.parse_config(os.path.join(PERFBENCH_CONFIGS, f"{tag}.cfg"))
        gcc = cli.build_gcc_from_config(cfg)
        for sent, received, beyond in _pinned_stream(random.Random(f"pinned/{tag}"), gcc, 50):
            report = gcc_decode(gcc, received)
            if not beyond:
                assert report.ok and report.codeword == sent
            digest.update(report.to_json().encode())
    assert digest.hexdigest() == PINNED_REPORTS_SHA256
