"""The decoders' cached linear solves and error tables against brute force.

Every system the decoders solve has a matrix fixed by the code: a chain
level's basis, or a generator restricted to the coordinates an erasure
trial keeps.  Each is row-reduced once, and a trial that allows errors
looks its syndrome up in a table built once per kept-coordinate set.
These tests compare the solves and the lookups with a search over every
codeword, on a cold and on a warm cache, and count the row reductions,
codeword scans and per-coordinate field calls of a warmed decoder.
"""

import os
import random
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import F2, F3, mixed_code_from_parity_mother
from whmetric import cli
from whmetric import code as code_module
from whmetric import linalg
from whmetric.code import (
    FAIL,
    LinearCode,
    NestedChain,
    PolyalphabeticCode,
    named_code,
    vec_add,
)
from whmetric.construct import outer_code
from whmetric.decode import gcc_decode, gmd_decode
from whmetric.errors import ParameterError
from whmetric.field import Field, make_extension_field

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
                    got = code_module._erasures_core(code, set(erased), s + 1, r)
                    assert got == (FAIL if deficient else expected)
            entry = code._solvers[cols]
            assert (entry is None) == deficient
            if entry is not None:  # re-encoding through the stored rows is the identity on info
                assert set(entry.info) <= set(cols) and len(entry.product.rows) == code.k
                assert set(entry.rest) == set(cols) - set(entry.info)
                for c in codewords:
                    assert entry.encode(c) == c


# -- trials that allow errors: one error table per kept-coordinate set ----------


def nearest_by_brute_force(codewords, spans, erased, d, received):
    """The scan's answer: the only codeword nearest ``received`` on the
    kept symbols when 2 * (its distance) + s < d, else FAIL."""
    kept = [span for i, span in enumerate(spans) if i not in erased]
    dists = [sum(1 for lo, hi in kept if c[lo:hi] != received[lo:hi]) for c in codewords]
    best = min(dists)
    if dists.count(best) == 1 and 2 * best + len(erased) < d:
        return codewords[dists.index(best)]
    return FAIL


def pattern_count(q, widths, radius):
    """Words with at most ``radius`` nonzero symbols of the given widths,
    counted over every choice of support."""
    total = 0
    for w in range(radius + 1):
        for support in combinations(widths, w):
            count = 1
            for b in support:
                count *= q**b - 1
            total += count
    return total


def check_error_trials(code, words):
    """Every erasure set with s < d and e >= 1, decoded cold and warm
    against brute force; returns the paths the kept sets took."""
    field = code.field
    spans = code._offsets
    codewords = list(code.codewords())
    d = min(sum(1 for lo, hi in spans if any(c[lo:hi])) for c in codewords if any(c))
    assert code._decoding_distance() == d
    paths = set()
    for s in range(min(d, len(spans) + 1)):
        if (d - 1 - s) // 2 == 0:
            continue
        for erased in combinations(range(len(spans)), s):
            kept = [span for i, span in enumerate(spans) if i not in erased]
            cols = tuple(c for lo, hi in kept for c in range(lo, hi))
            for r in words:
                expected = nearest_by_brute_force(codewords, spans, set(erased), d, r)
                code._solvers.pop(cols, None)
                assert code.erasure_decode(r, erased) == expected  # cold
                assert code.erasure_decode(r, erased) == expected  # warm
            entry = code._solvers[cols]
            nonempty = sum(1 for i in erased if spans[i][1] > spans[i][0])
            radius = (d - 1 - nonempty) // 2
            widths = [hi - lo for lo, hi in kept]
            patterns = pattern_count(field.order, widths, radius)
            assert entry.radius == radius
            if patterns > field.order**code.k:
                assert entry.table is None
                paths.add("scan")
            else:
                assert len(entry.table) == patterns
                paths.add("table")
    return paths


def _projective_points(field, r):
    """The nonzero vectors of length r whose first nonzero entry is 1."""
    points = []
    for v in product(range(field.order), repeat=r):
        if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1:
            points.append(v)
    return points


@st.composite
def codes_for_error_trials(draw):
    """A code over F2, F3 or GF(4) with redundancy for errors, linear or
    polyalphabetic with one zero-width symbol, and received words: one
    drawn at random and codewords with one and two symbols redrawn.

    Half the codes have random generators; the others are the kernels of
    r x n parity checks with pairwise independent columns, so as linear
    codes they have d >= 3, and their rates reach both sides of the
    pattern-count rule."""
    field = draw(st.sampled_from((F2, F3, F4)))
    if draw(st.booleans()):
        k = draw(st.integers(1, 3 if field.order == 2 else 2))
        n = draw(st.integers(k + 2, k + 4))
        rows = _full_rank_rows(draw, field, n, k)
    else:
        r = draw(st.integers(2, 3))
        points = draw(st.permutations(_projective_points(field, r)))
        top = min(len(points), 7)
        n = draw(st.integers(max(r + 1, top - 2), top))
        columns = points[:n]
        rows = linalg.kernel_basis(field, [[col[i] for col in columns] for i in range(r)], n)
        k = n - r
    if draw(st.booleans()):
        code = LinearCode(field, rows)
    else:
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=2)))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        sizes.insert(draw(st.integers(0, len(sizes))), 0)
        code = PolyalphabeticCode(field, sizes, rows)
    spans = code._offsets
    words = [_word(draw, field, n)]
    for changes in (1, 2):
        noisy = list(code.encode([draw(st.integers(0, field.order - 1)) for _ in range(k)]))
        for i in draw(st.lists(st.integers(0, len(spans) - 1), min_size=changes, max_size=changes)):
            lo, hi = spans[i]
            noisy[lo:hi] = _word(draw, field, hi - lo)
        words.append(tuple(noisy))
    return code, words


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(codes_for_error_trials())
@example((named_code("hamming", F2, 7), [(1, 1, 0, 0, 0, 0, 0), (0, 1, 1, 0, 1, 0, 1)]))
@example((outer_code(F2, (2, 2, 2, 2), "reed_solomon", 2), [(1, 0) * 4, (0, 1, 1, 1, 0, 0, 1, 1)]))
def test_error_trials_match_the_nearest_codeword_scan(case):
    code, words = case
    check_error_trials(code, words)


def _noisy_codewords(code, rng):
    words = []
    for _ in range(3):
        word = list(code.encode([rng.randrange(code.field.order) for _ in range(code.k)]))
        for p in rng.sample(range(len(word)), rng.randint(0, 2)):
            word[p] = rng.randrange(code.field.order)
        words.append(tuple(word))
    return words


LOW_RATE_ROWS = [(1, 0, 0, 1, 1, 1), (0, 1, 1, 1, 1, 0)]  # block distance 3 on (2, 2, 2)


@pytest.mark.parametrize(
    "make, path",
    (
        (lambda: named_code("hamming", F2, 7), "table"),  # 8 patterns, 16 words
        (lambda: named_code("hamming", F3, 4), "table"),  # 9 patterns, 9 words
        (lambda: named_code("repetition", F2, 5), "scan"),  # 16 patterns, 2 words
        (lambda: named_code("repetition", F4, 4), "scan"),  # 13 patterns, 4 words
        (lambda: PolyalphabeticCode(F2, (0, 2, 2, 2), LOW_RATE_ROWS), "scan"),
        (lambda: mixed_code_from_parity_mother(2), None),  # d = 2: no trial allows errors
    ),
    ids=("hamming-7", "hamming-4-ternary", "repetition-5", "repetition-gf4", "poly-low-rate", "d2"),
)
def test_each_kept_set_takes_the_table_or_the_scan_by_pattern_count(make, path):
    code = make()
    paths = check_error_trials(code, _noisy_codewords(code, random.Random(5)))
    assert paths == ({path} if path else set())


def test_rs4_outer_code_keeps_a_table_for_its_error_trial():
    gcc = cli.build_gcc_from_config(cli.parse_config(RS4_CONFIG))
    outer = gcc.outers[0]  # [4, 2] Reed-Solomon over GF(8) as 3-bit symbols, d = 3
    words = _noisy_codewords(outer, random.Random(8))
    assert check_error_trials(outer, words) == {"table"}
    assert len(outer._solvers[tuple(range(12))].table) == 1 + 4 * 7


def _bch_15_7():
    """The binary [15, 7, 5] BCH code, as 15 one-bit symbols and one
    zero-width symbol at the end."""
    g = (1, 0, 0, 0, 1, 0, 1, 1, 1)  # 1 + x^4 + x^6 + x^7 + x^8
    rows = [tuple([0] * i + list(g) + [0] * (6 - i)) for i in range(7)]
    return PolyalphabeticCode(F2, (1,) * 15 + (0,), rows)


def test_a_zero_width_erasure_narrows_the_budget_below_the_table_radius():
    code = _bch_15_7()
    assert code._decoding_distance() == 5
    codewords = list(code.codewords())
    sent = code.encode((1, 0, 1, 1, 0, 0, 1))
    one = tuple(1 - x if p == 3 else x for p, x in enumerate(sent))
    two = tuple(1 - x if p in (3, 9) else x for p, x in enumerate(sent))
    # no symbol of width > 0 erased: the table covers two errors
    assert code.erasure_decode(two, ()) == sent
    # erasing the zero-width symbol keeps the same coordinates and table,
    # but 2e + s < d now allows one error only, as in the scan; the table
    # is the same whichever of the two trials builds it
    for first in ((15,), ()):
        code._solvers.clear()
        code.erasure_decode(sent, first)
        for erased in ((), (15,)):
            for r in (sent, one, two):
                expected = nearest_by_brute_force(codewords, code._offsets, set(erased), 5, r)
                assert code.erasure_decode(r, erased) == expected
    assert code.erasure_decode(two, (15,)) is FAIL
    assert code.erasure_decode(one, (15,)) == sent
    assert code._solvers[tuple(range(15))].radius == 2


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
        # the solver is built; a vector outside the level still raises,
        # also when the caller vouches for its symbols
        code = chain.codes[level]
        for i in range(n):
            outside = vec_add(field, b, tuple(int(j == i) for j in range(n)))
            if not code.contains(outside):
                for checked in (False, True):
                    with pytest.raises(ParameterError, match=f"not in chain level {level + 1}"):
                        chain.quotient_message(level, outside, _checked=checked)


def _two_product_message(chain, level, b):
    """The level message of b by a solve and a separate re-encoding: y =
    b[info] . M for M the inverse of the level's rows R on an information
    set, then y . R checked against b; None when b is outside the level."""
    field, n = chain.field, chain.n
    rows = chain.quotient_rows[level] + chain.sub_basis[level]
    info, inverse = linalg._left_inverse(field, rows, range(n))
    y = code_module._Product(field, inverse, len(inverse))([b[c] for c in info])
    if code_module._Product(field, rows, n)(y) != b:
        return None
    return y[: chain.widths[level]]


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(chains(), st.data())
def test_fused_quotient_message_matches_the_two_product_solve(chain, data):
    field, n = chain.field, chain.n
    for level in range(chain.s):
        code = chain.codes[level]
        message = [data.draw(st.integers(0, field.order - 1)) for _ in range(code.k)]
        for b in (code.encode(message), _word(data.draw, field, n)):
            expected = _two_product_message(chain, level, b)
            for checked in (False, True):
                if expected is None:
                    with pytest.raises(ParameterError, match=f"not in chain level {level + 1}"):
                        chain.quotient_message(level, b, _checked=checked)
                else:
                    assert chain.quotient_message(level, b, _checked=checked) == expected


@st.composite
def whole_spaces(draw, polyalphabetic=True):
    """A k = n code over F2, F3 or GF(4) with a random square generator:
    linear, or (when ``polyalphabetic``) possibly polyalphabetic with up
    to two zero-width symbols among its symbols; and a received word."""
    field = draw(st.sampled_from((F2, F3, F4)))
    n = draw(st.integers(1, 5))
    rows = _full_rank_rows(draw, field, n, n)
    if not polyalphabetic or draw(st.booleans()):
        return LinearCode(field, rows), _word(draw, field, n)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    for _ in range(draw(st.integers(0, 2))):
        sizes.insert(draw(st.integers(0, len(sizes))), 0)
    return PolyalphabeticCode(field, sizes, rows), _word(draw, field, n)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(whole_spaces(), st.data())
def test_gmd_on_the_whole_space_returns_the_erasure_free_trial(case, data):
    outer, received = case
    alphas = [data.draw(st.integers(0, 9)) for _ in outer.sizes]
    expected = outer.erasure_decode(received, [])
    assert expected == received
    symbols = outer.symbols(received)
    for given_symbols in (symbols, [list(sym) for sym in symbols]):
        for checked in (False, True):
            result = gmd_decode(outer, given_symbols, alphas, _checked=checked)
            assert type(result) is tuple and result == expected


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(whole_spaces(polyalphabetic=False))
def test_bmd_on_the_whole_space_returns_the_received_word(case):
    code, r = case
    for word in (r, list(r)):
        for checked in (False, True):
            result = code.bmd_decode(word, _checked=checked)
            assert type(result) is tuple and result == r
    assert code._syndrome_table is None  # no table, and no syndrome
    with pytest.raises(ParameterError):
        code.bmd_decode(r[:-1] + (code.field.order,))


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
    row_reduce = linalg.row_reduce

    def counted(field, rows):
        calls.append(len(rows))
        return row_reduce(field, rows)

    streams = []
    for cls in (LinearCode, PolyalphabeticCode):
        codewords = cls.codewords

        def counted_stream(self, codewords=codewords):
            streams.append(self)
            return codewords(self)

        monkeypatch.setattr(cls, "codewords", counted_stream)
    for module in (code_module, linalg):  # the code classes and the kept-set builds
        monkeypatch.setattr(module, "row_reduce", counted)
    cold = [gcc_decode(gcc, w) for w in words]
    assert calls  # the counter sees the erasure solvers being built
    calls.clear()
    streams.clear()
    warm = [gcc_decode(gcc, w) for w in words]
    assert calls == []
    assert streams == []  # the s = 0 trial of the first outer code looks up its table
    list(gcc.outers[0].codewords())
    assert streams == [gcc.outers[0]]  # the counter sees a stream
    assert [r.to_json() for r in warm] == [r.to_json() for r in cold]


# Field.validate_all calls on the warm pass below: one per gcc_decode call,
# of the received word; the inner entries it calls skip the checks of the
# words it made from that word.
WARM_VALIDATIONS = {"rs4": 60, "q7": 60}


@pytest.mark.parametrize("tag", sorted(WARM_VALIDATIONS))
def test_a_warmed_decoder_makes_no_field_call_per_coordinate(monkeypatch, tag):
    config = os.path.join(os.path.dirname(RS4_CONFIG), f"{tag}.cfg")
    gcc = cli.build_gcc_from_config(cli.parse_config(config))
    words = _noisy_words(gcc, 60, seed=9)
    cold = [gcc_decode(gcc, w) for w in words]
    calls = {"add": 0, "sub": 0, "validate_all": 0}
    for name in calls:
        method = getattr(Field, name)

        def counted(*args, name=name, method=method):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(Field, name, counted)
    warm = [gcc_decode(gcc, w) for w in words]
    assert calls == {"add": 0, "sub": 0, "validate_all": WARM_VALIDATIONS[tag]}
    assert [r.to_json() for r in warm] == [r.to_json() for r in cold]


# _Product calls per word on the warm pass below.  Per level, each block
# makes one syndrome product (none in a whole-space inner code), one
# quotient solve and one cancellation, and the outer code one product
# per erasure trial (none in the whole space): rs4 makes 4 + 4 + 3 + 4
# on its Reed-Solomon level and 4 + 4 + 4 on its whole-space level, hc
# 1 + 3 + 3 and q7 2 + 2 + 2.
WARM_PRODUCTS = {"rs4": 27, "hc": 7, "q7": 6}


@pytest.mark.parametrize("tag", sorted(WARM_PRODUCTS))
def test_a_warmed_decoder_makes_a_pinned_number_of_products_per_word(monkeypatch, tag):
    config = os.path.join(os.path.dirname(RS4_CONFIG), f"{tag}.cfg")
    gcc = cli.build_gcc_from_config(cli.parse_config(config))
    words = _noisy_words(gcc, 60, seed=9)
    cold = [gcc_decode(gcc, w) for w in words]
    calls = [0]
    call = code_module._Product.__call__

    def counted(self, y):
        calls[0] += 1
        return call(self, y)

    monkeypatch.setattr(code_module._Product, "__call__", counted)
    warm, per_word = [], []
    for w in words:
        calls[0] = 0
        warm.append(gcc_decode(gcc, w))
        per_word.append(calls[0])
    assert per_word == [WARM_PRODUCTS[tag]] * len(words)
    assert [r.to_json() for r in warm] == [r.to_json() for r in cold]


def test_one_kept_set_per_erased_set_however_it_is_named():
    gcc = cli.build_gcc_from_config(cli.parse_config(RS4_CONFIG))
    outer = gcc.outers[0]  # [4, 2] Reed-Solomon over GF(8) as 3-bit symbols, d = 3
    sent = outer.encode((1, 0, 1, 1, 0, 1))
    received = (1 - sent[0],) + sent[1:]  # symbol 0 is wrong, and erased below
    outer._solvers.clear()
    outer._kept.clear()
    for erased in ([0, 2], (2, 0), {0, 2}, frozenset((2, 0)), [2, 0]):
        assert outer.erasure_decode(received, erased) == sent
    assert list(outer._kept) == [frozenset((0, 2))]
    kept, cols = outer._kept[frozenset((0, 2))]
    assert kept == ((3, 6), (9, 12)) and cols == (3, 4, 5, 9, 10, 11)
    assert list(outer._solvers) == [cols]
