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
cancelled from the residual before the next level.

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


def gmd_decode(outer: PolyalphabeticCode, symbols, reliabilities):
    """Generalized minimum distance decoding of one outer word.

    ``symbols`` holds one tuple per position, ``reliabilities`` one
    non-negative integer per position.  Returns a flat codeword or FAIL.
    """
    m = outer.n_symbols
    if len(symbols) != m or len(reliabilities) != m:
        raise ParameterError(f"need one symbol and one reliability per position ({m})")
    for sym, size in zip(symbols, outer.sizes):
        if len(sym) != size:
            raise ParameterError("symbol widths do not match the outer code")
    if any(a < 0 for a in reliabilities):
        raise ParameterError("reliabilities must be non-negative")
    d = outer._decoding_distance()
    received = tuple(x for sym in symbols for x in sym)
    # zero-width symbols carry no information and are never erased
    rank = sorted(
        range(m),
        key=lambda l: (reliabilities[l] if outer.sizes[l] else _NEVER_ERASED, l),
    )
    candidates = []
    for erasures in range(min(d, m + 1)):
        erased = rank[:erasures]
        cand = outer.erasure_decode(received, erased)
        if cand is not FAIL and cand not in candidates:
            candidates.append(cand)
    if not candidates:
        return FAIL
    def correlation(cand):
        total = 0
        for l in range(m):
            sigma = 1 if outer.symbol(cand, l) == symbols[l] else -1
            total += reliabilities[l] * sigma
        return total
    best = candidates[0]
    best_corr = correlation(best)
    for cand in candidates[1:]:
        corr = correlation(cand)
        if corr > best_corr:
            best, best_corr = cand, corr
    return best


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
    decoding failure, which is reported in the status instead."""
    if len(received) != gcc.n:
        raise ParameterError(f"received word has length {len(received)}, code has {gcc.n}")
    field = gcc.field
    space = gcc.space
    ranges = space.block_ranges()
    residual = tuple(received)
    estimate = (0,) * gcc.n
    levels = []
    status = "ok"
    for j in range(gcc.levels):
        outer = gcc.outers[j]
        inner_words = []
        syms = []
        alphas = []
        for l, chain in enumerate(gcc.chains):
            lo, hi = ranges[l]
            block = residual[lo:hi]
            inner = chain.codes[j]
            word = inner.bmd_decode(block)
            inner_words.append(word)
            if word is FAIL:
                syms.append((0,) * chain.widths[j])
                alphas.append(0)
            else:
                syms.append(chain.quotient_message(j, word))
                alpha = space.scales[l] * max(
                    0, gcc.inner_distances[j][l] - 2 * hamming_distance(block, word)
                )
                alphas.append(alpha)
        outer_word = gmd_decode(outer, syms, alphas)
        if outer_word is FAIL:
            if status == "ok":
                status = f"outer-failure-at-level-{j + 1}"
            levels.append(LevelRecord(inner_words, alphas, None))
            continue
        symbols = outer.symbols(outer_word)
        cancel = []
        for l, chain in enumerate(gcc.chains):
            cancel.extend(chain.quotient_encode(j, symbols[l]))
        cancel = tuple(cancel)
        estimate = vec_add(field, estimate, cancel)
        residual = vec_sub(field, residual, cancel)
        levels.append(LevelRecord(inner_words, alphas, outer_word))
    return DecodeReport(codeword=estimate, levels=levels, status=status)
