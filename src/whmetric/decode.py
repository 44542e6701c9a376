"""Multistage decoding of generalized concatenated codes.

Level by level, each block's residual is decoded in its inner code by a
bounded-minimum-distance decoder; the result is mapped to an outer
symbol with an integer reliability

    alpha = scale_l * max(0, d(B) - 2 * d_H(residual, inner decision)),

zero on inner failure.  The outer code is then decoded by a generalized
minimum distance (GMD) decoder: erasure trials over every erasure count
below the outer distance, candidates ranked by correlation between their
symbols and the received symbols weighted by the reliabilities.  The
winning outer codeword is re-encoded through the chain quotients and
cancelled from the residual before the next level.  A whole-space code
(k = n) holds every word: as an inner code it returns its block, and
as an outer code it returns the received symbols with no GMD trial.

If the reliability mass on the correctly decoded blocks needed to reach
the outer distance exceeds the mass on the wrongly decoded ones, the
transmitted outer word is among the erasure-trial candidates and wins
the correlation ranking; this is what makes the decoder correct up to
the construction's capability floor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .code import FAIL, PolyalphabeticCode, hamming_distance, vec_add, vec_sub
from .construct import GccCode
from .errors import ParameterError

_NEVER_ERASED = float("inf")


def gmd_decode(outer: PolyalphabeticCode, symbols, reliabilities, *, _checked=False):
    """Generalized minimum distance decoding of one outer word.

    ``symbols`` holds one sequence per position, of that symbol's width,
    and ``reliabilities`` one non-negative integer per position.  Returns
    a flat codeword or FAIL.  The counts, widths, reliabilities and
    symbols are checked unless ``_checked`` says the caller made them
    itself; the flag is passed on to every erasure trial.  The whole
    space (k = n) holds every word, so it returns the received word
    with no trial.
    """
    m = outer.n_symbols
    if _checked:
        received = tuple([x for sym in symbols for x in sym])
    else:
        try:
            counts = len(symbols), len(reliabilities)
            widths = tuple(map(len, symbols))
            received = tuple([x for sym in symbols for x in sym])
        except TypeError:
            raise ParameterError("symbols and reliabilities must be sequences") from None
        if counts != (m, m):
            raise ParameterError(f"need one symbol and one reliability per position ({m})")
        if widths != outer.sizes:
            raise ParameterError("symbol widths do not match the outer code")
        if not all(isinstance(a, int) and a >= 0 for a in reliabilities):
            raise ParameterError("reliabilities must be non-negative integers")
        outer.field.validate_all(received)
    if outer.k == outer.n:
        return received
    d = outer._decoding_distance()
    # zero-width symbols carry no information and are never erased
    rank = sorted(
        range(m),
        key=lambda l: (reliabilities[l] if outer.sizes[l] else _NEVER_ERASED, l),
    )
    candidates = []
    for erasures in range(min(d, m + 1)):
        erased = rank[:erasures]
        cand = outer.erasure_decode(received, erased, _checked=_checked)
        if cand is not FAIL and cand not in candidates:
            candidates.append(cand)
    if len(candidates) < 2:
        return candidates[0] if candidates else FAIL
    received_symbols = outer.symbols(received)

    def correlation(cand):
        pairs = zip(reliabilities, outer.symbols(cand), received_symbols)
        return sum([a if got == sym else -a for a, got, sym in pairs])

    return max(candidates, key=correlation)  # ties go to the earliest candidate


@dataclass
class LevelRecord:
    inner_words: list  # per block: decoded inner codeword or None
    reliabilities: list
    outer_word: tuple  # flat outer codeword, or None on outer failure


@dataclass
class DecodeReport:
    codeword: tuple
    levels: list
    status: str  # "ok" or "outer-failure-at-level-<j>"

    @property
    def ok(self):
        return self.status == "ok"

    def to_json(self) -> str:
        payload = {
            "codeword": list(self.codeword),
            "levels": [
                {
                    "inner": [list(w) if w is not None else None for w in lv.inner_words],
                    "reliabilities": list(lv.reliabilities),
                    "outer": list(lv.outer_word) if lv.outer_word is not None else None,
                }
                for lv in self.levels
            ],
            "status": self.status,
        }
        return json.dumps(payload, indent=2) + "\n"


def gcc_decode(gcc: GccCode, received) -> DecodeReport:
    """Successive-cancellation decoding of a noisy word; never raises on
    decoding failure, which is reported in the status instead.

    The received word is the only input from outside: its length and
    symbols are checked here, once.  Every word the loop hands on (a
    residual block, an inner decision, an outer word, its symbols) is
    made from it by field-table arithmetic and the codes' own products,
    so the inner entries are called with ``_checked=True``.  The first
    decoded level's cancellation is the estimate itself, and the last
    level leaves the residual as it is, since nothing reads it."""
    try:
        length = len(received)
    except TypeError:
        raise ParameterError("the received word must be a sequence of field elements") from None
    if length != gcc.n:
        raise ParameterError(f"received word has length {length}, code has {gcc.n}")
    field = gcc.field
    field.validate_all(received)
    chains = gcc.chains
    ranges = gcc.space.block_ranges()
    scales = gcc.space.scales
    last = gcc.levels - 1
    residual = tuple(received)
    estimate = None
    levels = []
    status = "ok"
    for j, outer in enumerate(gcc.outers):
        inner_words = []
        syms = []
        alphas = []
        blocks = zip(ranges, chains, scales, gcc.inner_distances[j])
        for (lo, hi), chain, scale, distance in blocks:
            block = residual[lo:hi]
            word = chain.codes[j].bmd_decode(block, _checked=True)
            inner_words.append(word)
            if word is FAIL:
                syms.append((0,) * chain.widths[j])
                alphas.append(0)
            else:
                syms.append(chain.quotient_message(j, word, _checked=True))
                alphas.append(scale * max(0, distance - 2 * hamming_distance(block, word)))
        outer_word = gmd_decode(outer, syms, alphas, _checked=True)
        levels.append(LevelRecord(inner_words, alphas, outer_word))
        if outer_word is FAIL:
            if status == "ok":
                status = f"outer-failure-at-level-{j + 1}"
            continue
        cancel = []
        for chain, symbol in zip(chains, outer.symbols(outer_word)):
            cancel.extend(chain.quotient_encode(j, symbol, _checked=True))
        cancel = tuple(cancel)
        estimate = cancel if estimate is None else vec_add(field, estimate, cancel)
        if j < last:
            residual = vec_sub(field, residual, cancel)
    if estimate is None:
        estimate = (0,) * gcc.n
    return DecodeReport(codeword=estimate, levels=levels, status=status)
