"""The decoders' cached linear solves against brute force.

Every system the decoders solve has a matrix fixed by the code: a chain
level's basis, or a generator restricted to the coordinates an erasure
trial keeps.  Each is row-reduced once, so these tests compare the
solves with a search over every codeword, on a cold and on a warm
cache, and count the row reductions of a warmed decoder.
"""

import os
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import F2, F3
from whmetric import cli
from whmetric import code as code_module
from whmetric.code import FAIL, LinearCode, NestedChain, PolyalphabeticCode, vec_add
from whmetric.decode import gcc_decode
from whmetric.errors import ParameterError
from whmetric.field import make_extension_field

F4 = make_extension_field(2, 2)

RS4_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "configs", "rs4.cfg")


def _full_rank_rows(draw, field, n, k):
    """k independent rows: [I | A] with columns permuted, then mixed by
    an upper unitriangular change of basis."""
    entry = st.integers(0, field.order - 1)
    rows = [
        [int(i == j) for j in range(k)] + draw(st.lists(entry, min_size=n - k, max_size=n - k))
        for i in range(k)
    ]
    order = draw(st.permutations(range(n)))
    rows = [tuple(row[c] for c in order) for row in rows]
    for i in range(k):
        for j in range(i + 1, k):
            c = draw(entry)
            rows[i] = vec_add(field, rows[i], tuple(field.mul(c, x) for x in rows[j]))
    return rows


def _word(draw, field, n):
    return tuple(draw(st.lists(st.integers(0, field.order - 1), min_size=n, max_size=n)))


@st.composite
def codes_and_words(draw):
    """A full-rank code over F2, F3 or GF(4), either linear or
    polyalphabetic with one zero-width symbol, and received words: one
    drawn at random and one codeword with up to two coordinates redrawn."""
    field = draw(st.sampled_from((F2, F3, F4)))
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, min(n, 4 if field.order == 2 else 3)))
    rows = _full_rank_rows(draw, field, n, k)
    if draw(st.booleans()):
        code = LinearCode(field, rows)
        spans = [(i, i + 1) for i in range(n)]
    else:
        cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        sizes.insert(draw(st.integers(0, len(sizes))), 0)
        code = PolyalphabeticCode(field, sizes, rows)
        spans, start = [], 0
        for size in sizes:
            spans.append((start, start + size))
            start += size
    message = [draw(st.integers(0, field.order - 1)) for _ in range(k)]
    noisy = list(code.encode(message))
    for p in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        noisy[p] = draw(st.integers(0, field.order - 1))
    return code, spans, [_word(draw, field, n), tuple(noisy)]


def agreeing_codeword(codewords, received, cols):
    """The one codeword that agrees with ``received`` on ``cols``, else FAIL."""
    found = [c for c in codewords if all(c[i] == received[i] for i in cols)]
    return found[0] if len(found) == 1 else FAIL


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(codes_and_words())
def test_cached_erasure_solves_match_brute_force(case):
    code, spans, words = case
    d = code._decoding_distance()
    codewords = list(code.codewords())
    zero = (0,) * len(codewords[0])
    for s in range(len(spans) + 1):
        for erased in combinations(range(len(spans)), s):
            kept = [span for i, span in enumerate(spans) if i not in erased]
            cols = tuple(c for lo, hi in kept for c in range(lo, hi))
            deficient = agreeing_codeword(codewords, zero, cols) is FAIL
            for r in words:
                expected = agreeing_codeword(codewords, r, cols)
                if s < d and (d - 1 - s) // 2 == 0:  # the decoder's e = 0 trials
                    assert code.erasure_decode(r, erased) == expected  # cold
                    assert code.erasure_decode(r, erased) == expected  # warm
                # the same branch for every kept set, rank-deficient ones
                # included, by claiming a distance that leaves no errors
                for _ in range(2):
                    got = code_module._erasures_core(code, kept, s, s + 1, r)
                    assert got == (FAIL if deficient else expected)
            assert (code._solvers[cols] is None) == deficient


@st.composite
def chains(draw):
    """A chain of up to three nested codes spanned by prefixes of a
    random basis, over F2, F3 or GF(4)."""
    field = draw(st.sampled_from((F2, F3, F4)))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    rows = _full_rank_rows(draw, field, n, k)
    dims = sorted(draw(st.sets(st.integers(1, k), min_size=1, max_size=3)), reverse=True)
    return NestedChain([LinearCode(field, rows[:dim]) for dim in dims])


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(chains(), st.data())
def test_quotient_message_inverts_quotient_encode(chain, data):
    field, n = chain.field, chain.n
    symbol = st.integers(0, field.order - 1)

    def draw_vector(size):
        return tuple(data.draw(st.lists(symbol, min_size=size, max_size=size)))

    for level in range(chain.s):
        message = draw_vector(chain.widths[level])
        b = chain.quotient_encode(level, message)
        if level + 1 < chain.s:
            sub = chain.codes[level + 1]
            b = vec_add(field, b, sub.encode(draw_vector(sub.k)))
        assert chain.quotient_message(level, b) == message
        # the solver is built; a vector outside the level still raises
        code = chain.codes[level]
        for i in range(n):
            outside = vec_add(field, b, tuple(int(j == i) for j in range(n)))
            if not code.contains(outside):
                with pytest.raises(ParameterError, match=f"not in chain level {level + 1}"):
                    chain.quotient_message(level, outside)


def _noisy_words(gcc, count, seed):
    rng = random.Random(seed)
    q = gcc.space.q
    words = []
    for _ in range(count):
        message = tuple(rng.randrange(q) for _ in range(gcc.k))
        word = list(gcc.encode(gcc.split_message(message)))
        for p in rng.sample(range(gcc.n), rng.randint(0, 3)):
            word[p] = (word[p] + 1) % q
        words.append(tuple(word))
    return words


def test_a_warmed_decoder_makes_no_row_reduction(monkeypatch):
    gcc = cli.build_gcc_from_config(cli.parse_config(RS4_CONFIG))
    words = _noisy_words(gcc, 60, seed=9)
    calls = []
    row_reduce = code_module.row_reduce

    def counted(field, rows):
        calls.append(len(rows))
        return row_reduce(field, rows)

    monkeypatch.setattr(code_module, "row_reduce", counted)
    cold = [gcc_decode(gcc, w) for w in words]
    assert calls  # the counter sees the erasure solvers being built
    calls.clear()
    warm = [gcc_decode(gcc, w) for w in words]
    assert calls == []
    assert [r.to_json() for r in warm] == [r.to_json() for r in cold]
