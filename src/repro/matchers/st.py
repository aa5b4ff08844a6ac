"""The ST matcher: suffix-structure matching that finds moved text.

The paper's ST matcher is suffix-tree based and finds *all* matching
regions in time linear in the two region lengths. We implement the
equivalent with a suffix automaton of the q-region: streaming the
p-region through the automaton yields, for every position of p, the
longest substring ending there that occurs anywhere in q (plus one of
its q end positions). Local maxima of that profile become candidate
match segments — including text blocks that moved, which the
diff-based UD matcher cannot see. It is the most complete matcher and
also the most expensive one, exactly the trade-off the optimizer
weighs.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..text import tokens as _tokens
from ..text.regions import MatchSegment
from ..text.span import Interval
from .base import ST_NAME, Matcher

_COST_MODEL = None


def _cost_model():
    # Imported lazily: optimizer -> cost -> engine -> matchers would
    # cycle at module load.
    global _COST_MODEL
    if _COST_MODEL is None:
        from ..optimizer.kernels import DEFAULT_KERNEL_MODEL
        _COST_MODEL = DEFAULT_KERNEL_MODEL
    return _COST_MODEL


class SuffixAutomaton:
    """Suffix automaton with first-occurrence end positions."""

    __slots__ = ("next", "link", "length", "first_end", "last")

    def __init__(self, text: str) -> None:
        self.next: List[Dict[str, int]] = [{}]
        self.link: List[int] = [-1]
        self.length: List[int] = [0]
        self.first_end: List[int] = [-1]
        self.last = 0
        for i, ch in enumerate(text):
            self._extend(ch, i)

    def _new_state(self, length: int, first_end: int) -> int:
        self.next.append({})
        self.link.append(-1)
        self.length.append(length)
        self.first_end.append(first_end)
        return len(self.next) - 1

    def _extend(self, ch: str, pos: int) -> None:
        cur = self._new_state(self.length[self.last] + 1, pos)
        p = self.last
        while p != -1 and ch not in self.next[p]:
            self.next[p][ch] = cur
            p = self.link[p]
        if p == -1:
            self.link[cur] = 0
        else:
            q = self.next[p][ch]
            if self.length[p] + 1 == self.length[q]:
                self.link[cur] = q
            else:
                clone = self._new_state(self.length[p] + 1,
                                        self.first_end[q])
                self.next[clone] = dict(self.next[q])
                self.link[clone] = self.link[q]
                while p != -1 and self.next[p].get(ch) == q:
                    self.next[p][ch] = clone
                    p = self.link[p]
                self.link[q] = clone
                self.link[cur] = clone
        self.last = cur


def probe_peaks(sam: SuffixAutomaton, p_body: str,
                min_length: int) -> Iterator[Tuple[int, int, int]]:
    """Reusable probe path: stream ``p_body`` through a (possibly
    prebuilt) automaton and yield the match-profile peaks.

    Yields ``(p_end_rel, length, state)`` for every local maximum of
    the longest-match profile with ``length >= min_length``. Both
    :meth:`STMatcher.match` and statistics probes (e.g. the optimizer
    sampling match coverage) share this loop, so a cached automaton
    can be probed repeatedly without rebuilding or materializing
    segments.
    """
    state = 0
    length = 0
    nxt = sam.next
    link = sam.link
    lengths = sam.length
    prev_len = 0
    for i, ch in enumerate(p_body):
        if ch in nxt[state]:
            state = nxt[state][ch]
            length += 1
        else:
            # The peak that just ended at i - 1.
            if prev_len >= min_length:
                yield (i - 1, prev_len, state)
            while state != -1 and ch not in nxt[state]:
                state = link[state]
            if state == -1:
                state = 0
                length = 0
            else:
                length = lengths[state] + 1
                state = nxt[state][ch]
        prev_len = length
    if prev_len >= min_length:
        yield (len(p_body) - 1, prev_len, state)


def st_kernel(pa, qa, min_length: int, np, q_index=None,
              pair_cap_factor: int = 8
              ) -> Optional[List[Tuple[int, int, int]]]:
    """Vectorized twin of build-automaton-then-:func:`probe_peaks`.

    ``pa`` / ``qa`` are the two regions' code points as uint64 arrays.
    Returns ``(p_end_rel, length, q_end_rel)`` per profile peak — the
    exact tuples the automaton path produces (``q_end_rel`` equals the
    automaton's first-occurrence end), in the same order — or ``None``
    when the anchor-pair bound is exceeded and the caller should fall
    back to the automaton.

    The algorithm anchors on k-grams (k = ``min_length``): every
    (p, q) position pair sharing a k-gram starts or continues a match
    diagonal. A peak of the longest-match profile has length >= k, so
    it contains at least one anchor, and along a diagonal run of
    anchors the match length at the chain's first anchor is exactly k
    (one character earlier would contradict chain-headness), growing
    by 1 per step — so per-position profile values come straight from
    chain offsets, no character walks. Anchor candidates are found via
    a rolling hash and then *verified by exact character comparison*,
    so hash collisions are filtered out and the result is exact. For
    each p position the automaton reports the minimal q end of the
    longest match; sorting candidates by (position, -length, q end)
    and keeping the first reproduces that choice.

    ``q_index``, when given, is ``(sorted_hashes, sort_order,
    run_end)`` for ``qa`` (see
    :meth:`repro.text.tokens.TokenCache.st_index`) — the batched
    per-q-region structure shared across candidate sets.
    """
    k = min_length
    n = int(pa.shape[0])
    m = int(qa.shape[0])
    if n < k or m < k:
        return []
    hp = _tokens.kgram_hashes(pa, k, np)
    if q_index is not None:
        hq_sorted, order, run_end = q_index
    else:
        hq = _tokens.kgram_hashes(qa, k, np)
        order = np.argsort(hq, kind="stable")
        hq_sorted = hq[order]
        run_end = np.searchsorted(hq_sorted, hq_sorted, side="right")
    # One binary search: the equal-run ends computed above stand in for
    # the usual side="right" pass.
    mq = int(hq_sorted.shape[0])
    lo = np.searchsorted(hq_sorted, hp, side="left")
    safe = np.minimum(lo, mq - 1)
    counts = np.where(hq_sorted[safe] == hp, run_end[safe] - lo, 0)
    total = int(counts.sum())
    if total == 0:
        return []
    if total > pair_cap_factor * (n + m) + 4096:
        # Highly repetitive regions blow up the anchor-pair set; the
        # automaton's O(n + m) path is the better tool there.
        return None
    offs = np.concatenate(([0], np.cumsum(counts)[:-1]))
    idx = np.arange(total) - np.repeat(offs, counts) + np.repeat(lo, counts)
    p_pos = np.repeat(np.arange(n - k + 1), counts)
    e_pos = order[idx]
    i_end = p_pos + k - 1
    e_end = e_pos + k - 1
    d = i_end - e_end
    # Anchor pairs have unique (d, i_end), so a packed single key sorts
    # identically to lexsort((i_end, d)) at a fraction of the cost;
    # regions too large to pack take the general lexsort.
    small = (n + m) < (1 << 20)
    if small:
        srt = np.argsort((d + m) * n + i_end)
    else:
        srt = np.lexsort((i_end, d))
    i_s = i_end[srt]
    e_s = e_end[srt]
    d_s = d[srt]

    def chains(i_s, d_s, total):
        newchain = np.empty(total, dtype=bool)
        newchain[0] = True
        newchain[1:] = (d_s[1:] != d_s[:-1]) | (i_s[1:] != i_s[:-1] + 1)
        head = np.maximum.accumulate(
            np.where(newchain, np.arange(total), 0))
        return newchain, head

    newchain, head = chains(i_s, d_s, total)
    # Verify anchors chain-wise: a diagonal chain asserts one
    # contiguous p-range equals one contiguous q-range, so comparing
    # each chain's covered characters once replaces the k-wide
    # per-pair compare (whose gather cost dominated the kernel).
    # Every covered position lies in some pair's window, so
    # all-positions-equal <=> all pairs verify.
    cs = np.nonzero(newchain)[0]
    span = np.empty(cs.size, dtype=np.int64)
    span[:-1] = cs[1:] - cs[:-1]
    span[-1] = total - cs[-1]
    span += k - 1  # pairs per chain -> covered chars per chain
    starts = i_s[cs] - (k - 1)
    offc = np.concatenate(([0], np.cumsum(span)[:-1]))
    covered = int(span.sum())
    pos = (np.arange(covered) - np.repeat(offc, span)
           + np.repeat(starts, span))
    eqc = pa[pos] == qa[pos - np.repeat(d_s[cs], span)]
    if not eqc.all():
        # Rare path (hash collision): score true-runs per position,
        # keep only pairs whose whole window verifies, rebuild chains.
        idxc = np.arange(covered)
        base = np.repeat(offc, span)
        lastbad = np.maximum.accumulate(np.where(eqc, -1, idxc))
        run = idxc - np.maximum(lastbad, base - 1)
        cid = np.cumsum(newchain) - 1
        cpos = offc[cid] + (i_s - i_s[head]) + (k - 1)
        okp = run[cpos] >= k
        i_s = i_s[okp]
        e_s = e_s[okp]
        d_s = d_s[okp]
        total = int(i_s.size)
        if total == 0:
            return []
        newchain, head = chains(i_s, d_s, total)
    D = k + (i_s - i_s[head])
    # Packed twin of lexsort((e_s, -D, i_s)): unique (i_s, e_s) per
    # pair keeps the ordering deterministic.
    if small:
        cap = np.int64((1 << 20) - 1)
        ord2 = np.argsort(
            (i_s << np.int64(40)) | ((cap - D) << np.int64(20)) | e_s)
    else:
        ord2 = np.lexsort((e_s, -D, i_s))
    i2 = i_s[ord2]
    first = np.empty(total, dtype=bool)
    first[0] = True
    first[1:] = i2[1:] != i2[:-1]
    sel = ord2[first]
    fi = i2[first]
    fe = e_s[sel]
    fD = D[sel]
    ms = np.zeros(n, dtype=np.int64)
    ms[fi] = fD
    nxt = np.empty(n, dtype=np.int64)
    nxt[:-1] = ms[1:]
    nxt[-1] = -1
    # Positions with ms < k read as 0 here; that proxy preserves the
    # peak condition ms[i+1] != ms[i] + 1 exactly for peaks >= k.
    peak_is = np.nonzero((ms >= k) & (nxt != ms + 1))[0]
    if peak_is.size == 0:
        return []
    pos = np.searchsorted(fi, peak_is)
    return [(int(i), int(v), int(e))
            for i, v, e in zip(peak_is, ms[peak_is], fe[pos])]


class STMatcher(Matcher):
    """All-maximal-common-substring matcher via a suffix automaton.

    ``min_length`` suppresses matches too short to enable any reuse
    (a match shorter than ``2β + 1`` has an empty copy zone for every
    unit); the engine picks it per unit from the unit's β.

    ``automatons``, when given, is a per-page-pair cache with a
    ``get(q_text, q_region) -> SuffixAutomaton`` method (see
    :class:`repro.fastpath.memo.AutomatonCache`): building the
    automaton dominates ST's cost, and within one page pair the same
    q-region recurs across input rows and units, so a cached automaton
    is reused instead of rebuilt. The automaton is read-only after
    construction, so reuse is behaviour-preserving by construction.

    ``kernel`` selects the vectorized :func:`st_kernel` path:
    ``"auto"`` (default) uses the optimizer's
    :class:`~repro.optimizer.kernels.KernelCostModel` per region size,
    ``"force"`` always uses it (tests), ``"off"`` never does. The
    kernel is parity-pinned to the automaton path, only speed differs.
    ``tokens``, a :class:`repro.text.tokens.TokenCache`, interns each
    page's code-point array and the per-q-region k-gram index once so
    candidate sets and sibling units share them.
    """

    name = ST_NAME
    CONFIG_ATTRS = ("min_length",)
    STATE_ATTRS = ("automatons", "tokens", "kernel")

    def __init__(self, min_length: int = 12,
                 automatons: Optional[object] = None,
                 tokens: Optional["_tokens.TokenCache"] = None,
                 kernel: str = "auto") -> None:
        if min_length < 1:
            raise ValueError("min_length must be >= 1")
        if kernel not in ("auto", "force", "off"):
            raise ValueError(f"unknown kernel mode: {kernel!r}")
        self.min_length = min_length
        self.automatons = automatons
        self.tokens = tokens
        self.kernel = kernel

    def _want_kernel(self, p_len: int, q_len: int) -> bool:
        if self.kernel == "off" or not _tokens.numpy_enabled():
            return False
        if self.kernel == "force":
            return True
        return _cost_model().use_st_kernel(p_len, q_len)

    def _kernel_peaks(self, p_text: str, p_region: Interval,
                      q_text: str, q_region: Interval
                      ) -> Optional[List[Tuple[int, int, int]]]:
        np = _tokens.get_numpy()
        if np is None:
            return None
        k = self.min_length
        if self.tokens is not None:
            chars = self.tokens.chars(p_text)
            if chars is None:
                return None
            pa = chars[p_region.start:p_region.end]
            index = self.tokens.st_index(q_text, q_region.start,
                                         q_region.end, k)
            if index is None:  # q region shorter than k: no match >= k
                return []
            qa, hq_sorted, order, run_end = index
            return st_kernel(pa, qa, k, np,
                             q_index=(hq_sorted, order, run_end))
        pa = _tokens.chars_u64(p_text[p_region.start:p_region.end], np)
        qa = _tokens.chars_u64(q_text[q_region.start:q_region.end], np)
        return st_kernel(pa, qa, k, np)

    def match(self, p_text: str, p_region: Interval,
              q_text: str, q_region: Interval) -> List[MatchSegment]:
        p_len = p_region.end - p_region.start
        q_len = q_region.end - q_region.start
        if p_len <= 0 or q_len <= 0:
            return []
        if self._want_kernel(p_len, q_len):
            # A cached automaton beats re-anchoring from scratch; only
            # kernel-match when no automaton for this content exists.
            sam = (self.automatons.peek(q_text, q_region)
                   if self.automatons is not None else None)
            if sam is None:
                peaks = self._kernel_peaks(p_text, p_region,
                                           q_text, q_region)
                if peaks is not None:
                    return [
                        MatchSegment(p_region.start + i - length + 1,
                                     q_region.start + e - length + 1,
                                     length)
                        for i, length, e in peaks
                    ]
                # pair-cap fallback: build the automaton below
        q_body = q_text[q_region.start:q_region.end]
        p_body = p_text[p_region.start:p_region.end]
        if self.automatons is not None:
            sam = self.automatons.get(q_text, q_region)
        else:
            sam = SuffixAutomaton(q_body)
        first_end = sam.first_end
        segments: List[MatchSegment] = []
        for p_end_rel, length, state in probe_peaks(sam, p_body,
                                                    self.min_length):
            p_start = p_region.start + p_end_rel - length + 1
            q_start = q_region.start + first_end[state] - length + 1
            segments.append(MatchSegment(p_start, q_start, length))
        return segments
