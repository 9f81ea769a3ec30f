"""SARI: scores a simplification against both its source and references.

Three components over n-gram orders 1-4: an F1 for n-grams added, an F1
for n-grams kept, and a precision for n-grams deleted. Reference counts
are fractional (summed over references, divided by r). Every ratio with a
zero denominator is 0, which makes the identity output score exactly
33.33 on a long enough sentence. All four orders always enter the mean,
even when a text is too short to have that order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .tokenizer import tokenize

ORDERS = (1, 2, 3, 4)
MAX_BINS = 10_000


@dataclass(frozen=True)
class SariReport:
    sari: float
    add: float
    keep: float
    delete: float


def ngrams(tokens: list[str], n: int) -> Counter:
    """Multiset of contiguous n-grams; empty when the sequence is shorter than n."""
    if n not in ORDERS:
        raise ValueError(f"n-gram order must be in {ORDERS}, got {n}")
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def _order_scores(src: Counter, out: Counter, ref_avg: dict) -> tuple[float, float, float]:
    grams = set(src) | set(out) | set(ref_avg)

    keep_hit = keep_claim = keep_true = 0.0
    del_hit = del_claim = 0.0
    add_hit = add_claim = add_true = 0.0
    for g in grams:
        cs = src.get(g, 0)
        co = out.get(g, 0)
        cr = ref_avg.get(g, 0.0)

        k, k_star = min(cs, co), min(cs, cr)
        keep_hit += min(k, k_star)
        keep_claim += k
        keep_true += k_star

        d, d_star = max(0, cs - co), max(0.0, cs - cr)
        del_hit += min(d, d_star)
        del_claim += d

        a, a_star = max(0, co - cs), max(0.0, cr - cs)
        add_hit += min(a, a_star)
        add_claim += a
        add_true += a_star

    f_keep = _f1(_ratio(keep_hit, keep_claim), _ratio(keep_hit, keep_true))
    p_del = _ratio(del_hit, del_claim)
    f_add = _f1(_ratio(add_hit, add_claim), _ratio(add_hit, add_true))
    return f_add, f_keep, p_del


def sari_sentence(source: str, output: str, references: list[str]) -> SariReport:
    if not references:
        raise ValueError("sari needs at least one reference")
    src_toks = tokenize(source)
    out_toks = tokenize(output)
    ref_toks = [tokenize(r) for r in references]
    r = len(references)

    per_order = []
    for n in ORDERS:
        src = ngrams(src_toks, n)
        out = ngrams(out_toks, n)
        ref_avg: dict[tuple, float] = {}
        for toks in ref_toks:
            for g, c in ngrams(toks, n).items():
                ref_avg[g] = ref_avg.get(g, 0.0) + c / r
        f_add, f_keep, p_del = _order_scores(src, out, ref_avg)
        per_order.append((100.0 * f_add, 100.0 * f_keep, 100.0 * p_del))

    add = sum(o[0] for o in per_order) / len(ORDERS)
    keep = sum(o[1] for o in per_order) / len(ORDERS)
    delete = sum(o[2] for o in per_order) / len(ORDERS)
    return SariReport((add + keep + delete) / 3.0, add, keep, delete)


def sari_corpus(items) -> tuple[SariReport, list[float]]:
    """Macro average: corpus components are the means of sentence components."""
    items = list(items)
    if not items:
        raise ValueError("sari_corpus needs at least one item")
    reports = [sari_sentence(s, o, list(refs)) for s, o, refs in items]
    n = len(reports)
    corpus = SariReport(
        sari=sum(r.sari for r in reports) / n,
        add=sum(r.add for r in reports) / n,
        keep=sum(r.keep for r in reports) / n,
        delete=sum(r.delete for r in reports) / n,
    )
    return corpus, [r.sari for r in reports]


def score_histogram(scores: list[float], num_bins: int) -> list[tuple[float, int]]:
    """Equal-width bins over [0, 100]; 100 falls in the last bin. At most MAX_BINS, a
    width of 0.01, the finest the report's two decimals print."""
    if not 1 <= num_bins <= MAX_BINS:
        raise ValueError(f"num_bins must lie in [1, {MAX_BINS}], got {num_bins}")
    width = 100.0 / num_bins
    counts = [0] * num_bins
    for s in scores:
        if not 0.0 <= s <= 100.0:
            raise ValueError(f"score {s} outside [0, 100]")
        counts[min(int(s / width), num_bins - 1)] += 1
    return [(i * width, c) for i, c in enumerate(counts)]
