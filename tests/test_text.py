"""Text-analysis kernel unit tests (RE2 parity semantics, determinism)."""

import re

import numpy as np
import pyarrow as pa

from multimedia_indexing_ray.functions import text as tx


def test_token_char_punct_counts():
    arr = pa.array(["  a  bb  ccc ", "", "x,y;z!", "héllo wörld"])
    np.testing.assert_array_equal(tx.token_count(arr), [3, 0, 1, 2])
    np.testing.assert_array_equal(tx.char_count(arr), [13, 0, 6, 11])
    np.testing.assert_array_equal(tx.punct_count(arr), [0, 0, 3, 0])


def _adversarial_strings() -> list:
    """Strings around RE2's whitespace class (with nulls): vertical tab,
    NBSP, em-space, ideographic space, NUL and NEL are token bytes."""
    import random

    fixed = ["", None, "\v", " ", "\u00a0", "\u2003", "\u3000", " lead", "trail ",
             "  both  ", "a\vb", "a\u00a0b", "a\u2003b", "\t\n\f\r", "日本 語 ",
             "héllo\twörld", "x" * 300, " y" * 300]
    rng = random.Random(7)
    alphabet = [" ", "\t", "\n", "\f", "\r", "\v", "\u00a0", "\u2003", "a", "é", "語",
                "\x00", "\x85"]
    return fixed + [
        None if rng.random() < 0.1
        else "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        for _ in range(2000)
    ]


def test_token_count_matches_re2_on_adversarial_strings():
    r"""The byte-level token counter equals RE2's `\S+` match count, as
    float64 (`turns.n_tokens`, NaN for null) and int64 (`token_count`):
    RE2's \s is [\t\n\f\r ], so vertical tab, NBSP, em-space and
    ideographic space are token bytes; sliced and multi-chunk inputs
    count each string on its own."""
    import warnings

    import pyarrow.compute as pc

    from multimedia_indexing_ray.functions.turns import n_tokens

    fixed = _adversarial_strings()
    for typ in (pa.string(), pa.large_string()):
        arr = pa.array(fixed, typ)
        cases = [
            arr, arr.slice(3), arr.slice(7, 40), arr.slice(len(arr)), pa.array([None, None], typ),
            pa.chunked_array([arr.slice(0, 9), arr.slice(9, 0), arr.slice(9)]),
            pa.chunked_array([], typ),
        ]
        for text in cases:
            re2 = pc.count_substring_regex(text, r"\S+").to_numpy(zero_copy_only=False)
            got = n_tokens(text)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, re2.astype(np.float64))
            with warnings.catch_warnings():  # NaN -> int64 for nulls, as RE2's path does
                warnings.simplefilter("ignore", RuntimeWarning)
                np.testing.assert_array_equal(tx.token_count(text), re2.astype(np.int64))


def test_stopword_count_word_boundaries():
    arr = pa.array(["the theme of a cat", "another band"])
    # 'the' matches, 'theme' must not; 'of'/'a' match; 'another' not
    np.testing.assert_array_equal(tx.stopword_count(arr), [3, 0])


def test_langid_deterministic_tie_first_wins():
    arr = pa.array(["the cat is here", "der hund ist da", "zz qq ww"])
    np.testing.assert_array_equal(tx.langid(arr), ["en", "de", "und"])


def test_shingles_and_jaccard():
    s1 = set(tx.shingles(tx.tokenize("a b c d"), 3))
    s2 = set(tx.shingles(tx.tokenize("a b c e"), 3))
    assert s1 == {"a b c", "b c d"}
    assert tx.jaccard(s1, s1) == 1.0
    assert tx.jaccard(s1, s2) == 1 / 3
    assert tx.jaccard(set(), set()) == 1.0


def test_minhash_similarity_estimate():
    t1 = tx.tokenize("the quick brown fox jumps over the lazy dog " * 5)
    t2 = tx.tokenize("the quick brown fox leaps over the lazy dog " * 5)
    s1 = tx.minhash_signature(tx.shingles(t1), 128)
    s2 = tx.minhash_signature(tx.shingles(t2), 128)
    est = (s1 == s2).mean()
    true = tx.jaccard(set(tx.shingles(t1)), set(tx.shingles(t2)))
    assert abs(est - true) < 0.2
    # deterministic
    np.testing.assert_array_equal(s1, tx.minhash_signature(tx.shingles(t1), 128))


def test_simhash_properties():
    a = tx.simhash64(tx.tokenize("alpha beta gamma delta epsilon"))
    b = tx.simhash64(tx.tokenize("alpha beta gamma delta zeta"))
    c = tx.simhash64(tx.tokenize("completely unrelated words here now"))
    assert a == tx.simhash64(tx.tokenize("alpha beta gamma delta epsilon"))
    assert tx.hamming64(np.array([a]), np.array([b]))[0] < tx.hamming64(
        np.array([a]), np.array([c])
    )[0]
    assert tx.simhash64([]) == np.uint64(0)


def test_simhash64_batch_matches_scalar_reference():
    """The vectorized SimHash equals the scalar `simhash64(tokenize(s))`
    per document: both split on RE2's whitespace class, so NBSP,
    em-space and vertical tab stay inside tokens."""
    docs = [d if d is not None else "" for d in _adversarial_strings()]
    docs += ["alpha beta gamma", "  lead trail  ", "a\u00a0b c\vd", "x\u2003y\tz"]
    assert tx.tokenize("a\u00a0b c\vd") == ["a\u00a0b", "c\vd"]
    got = tx.simhash64_batch(pa.array(docs)).view(np.uint64)
    want = np.array([tx.simhash64(tx.tokenize(d)) for d in docs], dtype=np.uint64)
    np.testing.assert_array_equal(got, want)


def test_winnow_fingerprints():
    fps = tx.winnow_fingerprints("the quick brown fox jumps over the lazy dog")
    assert fps == tx.winnow_fingerprints("the quick brown fox jumps over the lazy dog")
    assert len(fps) >= 1
    # a small edit changes few fingerprints
    fps2 = tx.winnow_fingerprints("the quick brown fox jumps over the lazy cat")
    overlap = len(set(fps) & set(fps2)) / max(len(set(fps) | set(fps2)), 1)
    assert overlap > 0.5
    assert tx.winnow_fingerprints("ab") == []


def test_md5_fingerprint_matches_hashlib():
    import hashlib

    assert tx.md5_fingerprint(["abc"]) == [hashlib.md5(b"abc").hexdigest()]


def test_winnow_batch_parity():
    """Vectorized batch winnowing == the per-doc reference, including
    short-doc edge cases."""
    import numpy as np

    from multimedia_indexing_ray.functions.text import winnow_batch, winnow_fingerprints

    texts = [
        "", "short", "exactly8", "nine char!", "x" * 7, "x" * 8, "x" * 12,
        "the quick brown fox jumps over the lazy dog and runs away fast",
        "unicode éèê test string with enough characters",
        # U+0000 is an ordinary code point, not padding
        "\x00" * 20, "abcdefghijkl\x00mnopqrstuvwxy", "fghijkl\x00mnopqrstuvwxy\x00",
    ]
    n_fp, min_fp = winnow_batch(texts)
    for i, t in enumerate(texts):
        fps = winnow_fingerprints(t)
        assert n_fp[i] == len(fps), (i, t)
        assert min_fp[i] == (min(fps) if fps else 0), (i, t)


def test_repetition_stats_hand_checked():
    texts = pa.array(
        [
            "a a a b",          # top token 'a'x3; bigram 'a a'x2
            "x y x y x",        # tokens 5, distinct 2, top tok 'x'x3, bigram 'x y'x2
            "",                 # empty doc -> all zeros
            "solo",             # 1 token -> no bigram
            "  spaced   out  ", # leading/trailing whitespace dropped
        ]
    )
    n_tok, n_dist, top_tok, top_bg = tx.repetition_stats(texts)
    assert n_tok.tolist() == [4, 5, 0, 1, 2]
    assert n_dist.tolist() == [2, 2, 0, 1, 2]
    assert top_tok.tolist() == [3, 3, 0, 1, 1]
    assert top_bg.tolist() == [2, 2, 0, 0, 1]


def test_top_term_batch_tie_rules():
    # corpus df: a->2 docs, b->1, z->2
    vocab = np.array(["a", "b", "z"])
    df = np.array([2, 1, 2], np.int64)
    texts = pa.array(
        [
            "a a b z",   # tf a=2 wins outright
            "a b",       # tf tie 1: df breaks it -> b (df 1 < 2)
            "a z",       # tf tie, df tie -> token asc -> a
            "",          # no tokens -> masked out
        ]
    )
    mask, terms, tfs, dfs = tx.top_term_batch(texts, vocab, df)
    assert mask.tolist() == [True, True, True, False]
    assert terms[:3].tolist() == ["a", "b", "a"]
    assert tfs[:3].tolist() == [2, 1, 1]
    assert dfs[:3].tolist() == [2, 1, 2]


def test_discrete_quantile_index_rule():
    """The registry's integer ceil-index rule: idx1 = (qh*n + 99)//100 on
    1-based sorted position (== ceil(q*n)); hand-checked values."""
    vals = np.arange(1, 11, dtype=np.int64)  # 1..10, each count 1
    cum = np.cumsum(np.ones(10, np.int64))
    for qh, want in ((50, 5), (85, 9), (90, 9), (99, 10), (100, 10)):
        target = (qh * 10 + 99) // 100
        got = vals[np.searchsorted(cum, target, side="left")]
        assert got == want, (qh, got, want)


def test_scrub_count_and_replace():
    arr = pa.array(
        [
            "mail me at a.b+c@ex-ample.co.uk now",
            "call +1 (555) 123-4567 or 555 123 4567",
            "the customer placed an order of value",
            "customers reorder valueless",  # word boundaries: no match
            "",
        ]
    )
    assert tx.scrub_count(arr, tx.PII_EMAIL_RE).tolist() == [1, 0, 0, 0, 0]
    assert tx.scrub_count(arr, tx.PII_PHONE_RE).tolist() == [0, 2, 0, 0, 0]
    assert tx.scrub_count(arr, tx.REDACT_TERM_RE).tolist() == [0, 0, 3, 0, 0]
    scrubbed = tx.scrub_replace(arr, tx.REDACT_TERM_RE).to_pylist()
    assert scrubbed[2] == "the [REDACTED] placed an [REDACTED] of [REDACTED]"
    assert scrubbed[3] == "customers reorder valueless"  # \b respected
    # email scrub removes the address entirely
    assert tx.scrub_replace(arr, tx.PII_EMAIL_RE).to_pylist()[0] == "mail me at [REDACTED] now"


def test_winnow_sets_batch_parity():
    """Flat per-doc fingerprint sets == the per-doc reference, across the
    chunked length-sorted path (small cell budget forces many chunks)."""
    import random

    import numpy as np

    from multimedia_indexing_ray.functions.text import winnow_fingerprints, winnow_sets_batch

    random.seed(3)
    texts = ["", "short", "a" * 7, "abcdefgh", "xy" * 200]
    texts += [
        "".join(random.choice("abcdef ") for _ in range(random.randint(0, 120)))
        for _ in range(150)
    ]
    flat, counts = winnow_sets_batch(texts)
    offs = np.r_[0, np.cumsum(counts)]
    for i, t in enumerate(texts):
        assert flat[offs[i] : offs[i + 1]].tolist() == winnow_fingerprints(t), i


def test_grams_decode_matches_per_doc_encode():
    """One decode per column == one utf-32 encode per document, over
    slices, chunks, nulls (empty), empty input, CJK, astral and U+0000;
    `encode` inverts it."""
    from multimedia_indexing_ray.functions import grams

    texts = ["", None, "abc", "日本語 テスト", "🎉 beyond 🌍 bmp", "a\x00b", "\x00" * 3,
             "tail\x00", "héllo wörld"]
    for typ in (pa.string(), pa.large_string()):
        arr = pa.array(texts, typ)
        for col in (
            arr,
            arr.slice(2, 5),  # non-zero offset into the shared buffers
            pa.chunked_array([arr.slice(0, 4), arr.slice(4)]),
            pa.chunked_array([], typ),
            pa.array([], typ),
        ):
            docs = [s or "" for s in col.to_pylist()]
            cp, starts = grams.decode(col)
            assert cp.dtype == np.uint32 and starts.dtype == np.int64
            want = [np.frombuffer(s.encode("utf-32-le"), np.uint32) for s in docs]
            np.testing.assert_array_equal(cp, np.concatenate([np.empty(0, np.uint32), *want]))
            np.testing.assert_array_equal(starts, np.cumsum([0] + [len(w) for w in want]))
            back = grams.encode(cp, starts)
            assert back.type == pa.string() and back.to_pylist() == docs


def test_codepoint_decode_lives_only_in_grams():
    """Every kernel gets codepoints from `functions/grams.py`; a second
    utf-32 decode path anywhere else in the package fails this test."""
    import pathlib

    import multimedia_indexing_ray

    root = pathlib.Path(multimedia_indexing_ray.__file__).parent
    pat = re.compile(r"utf[-_ ]?32", re.IGNORECASE)
    hits = [
        f"{p.relative_to(root)}:{i}"
        for p in sorted(root.rglob("*.py"))
        if p.relative_to(root).as_posix() != "functions/grams.py"
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if pat.search(line)
    ]
    assert hits == []
