"""Banded-Levenshtein kernel vs a reference DP and DuckDB's byte-level
``levenshtein`` — random edit scripts, random unrelated strings,
multibyte UTF-8, empty strings, and every band width."""

import random

import duckdb
import numpy as np
import pytest

from multimedia_indexing_ray.functions.editdist import (
    banded_levenshtein_pairs,
    utf8_codes,
)


def _ref_lev(a: bytes, b: bytes) -> int:
    la, lb = len(a), len(b)
    d = list(range(lb + 1))
    for i in range(1, la + 1):
        prev, d[0] = d[0], i
        for j in range(1, lb + 1):
            cur = d[j]
            d[j] = min(d[j] + 1, d[j - 1] + 1, prev + (a[i - 1] != b[j - 1]))
            prev = cur
    return d[lb]


def _edit_pairs(alphabet: str, n_pairs: int, seed: int):
    rng = random.Random(seed)
    pairs = []
    for _ in range(n_pairs):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        b = list(a)
        for _ in range(rng.randint(0, 8)):
            op = rng.choice("ids")
            if op == "i":
                b.insert(rng.randint(0, len(b)), rng.choice(alphabet))
            elif b:
                k = rng.randint(0, len(b) - 1)
                if op == "d":
                    b.pop(k)
                else:
                    b[k] = rng.choice(alphabet)
        pairs.append((a, "".join(b)))
    # plus unrelated strings (distances far beyond any band)
    for _ in range(n_pairs // 2):
        pairs.append(
            (
                "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 25))),
                "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 25))),
            )
        )
    return pairs


@pytest.mark.parametrize("K", [0, 1, 3, 8, 16])
def test_banded_matches_reference_ascii(K):
    pairs = _edit_pairs("abcde", 300, seed=7)
    got = banded_levenshtein_pairs(
        [utf8_codes(a) for a, _ in pairs], [utf8_codes(b) for _, b in pairs], K
    )
    exp = np.array(
        [min(_ref_lev(a.encode(), b.encode()), K + 1) for a, b in pairs]
    )
    np.testing.assert_array_equal(got, exp)


@pytest.mark.parametrize("K", [1, 4, 16])
def test_banded_matches_duckdb_multibyte(K):
    """DuckDB levenshtein is BYTE-level (levenshtein('🎉','x') = 4); the
    kernel must agree on multibyte UTF-8 exactly."""
    con = duckdb.connect()
    assert con.execute("SELECT levenshtein('🎉','x')").fetchone()[0] == 4
    pairs = _edit_pairs("abé日🎉 xyz", 150, seed=11)
    got = banded_levenshtein_pairs(
        [utf8_codes(a) for a, _ in pairs], [utf8_codes(b) for _, b in pairs], K
    )
    for (a, b), g in zip(pairs, got):
        d = con.execute("SELECT levenshtein(?, ?)", [a, b]).fetchone()[0]
        assert g == min(d, K + 1), (a, b, d, g)


def test_edge_shapes():
    K = 5
    cases = [
        ("", ""),  # both empty -> 0
        ("", "abc"),  # pure inserts
        ("abc", ""),  # pure deletes
        ("abc", "abc"),  # identical
        ("abcdef", "abcdefghijk"),  # len diff == K -> all inserts
        ("abcdef", "abcdefghijkl"),  # len diff == K+1 -> prefiltered sentinel
        ("aaaaaa", "bbbbbb"),  # all substitutions beyond K
    ]
    got = banded_levenshtein_pairs(
        [utf8_codes(a) for a, _ in cases], [utf8_codes(b) for _, b in cases], K
    )
    exp = [0, 3, 3, 0, 5, K + 1, K + 1]
    np.testing.assert_array_equal(got, exp)


def test_empty_pair_list():
    assert banded_levenshtein_pairs([], [], 4).size == 0


def test_sentinel_never_below_true_distance():
    """Within the band, the banded DP is exact (never under-reports) —
    the property the pair filter relies on."""
    pairs = _edit_pairs("abc", 200, seed=3)
    for K in (2, 6):
        got = banded_levenshtein_pairs(
            [utf8_codes(a) for a, _ in pairs], [utf8_codes(b) for _, b in pairs], K
        )
        for (a, b), g in zip(pairs, got):
            true = _ref_lev(a.encode(), b.encode())
            if true <= K:
                assert g == true
            else:
                assert g == K + 1


def test_anchor_editdist_mass_duplicate_block(ray_session):
    """A mass-duplicate anchor block (b identical docs -> b^2/2 pairs)
    must resolve through the identical-text short-circuit, not the DP,
    and still report near (non-identical) pairs exactly."""
    import ray.data as rd
    import pyarrow as pa

    from multimedia_indexing_ray.stages.dedup import anchor_editdist_pairs

    text = "alpha beta gamma delta epsilon zeta " * 6
    texts = [text] * 60 + [text[:-6] + "zetaX ", text + "eta "]
    docs = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = (
        anchor_editdist_pairs(
            rd.from_arrow(docs), "text", "doc_id", max_dist=16
        )
        .to_pandas()
        .sort_values(["a_id", "b_id"])
        .reset_index(drop=True)
    )
    n_same = 60 * 59 // 2
    assert (out["edit_distance"] == 0).sum() == n_same
    # docs 60/61 are near the identical block: their reported distances
    # must EQUAL the reference DP (not merely be consistent)
    exp60 = _ref_lev(text.encode(), texts[60].encode())
    exp61 = _ref_lev(text.encode(), texts[61].encode())
    assert 0 < exp60 <= 16 and 0 < exp61 <= 16  # fixture sanity
    d60 = out[(out["b_id"] == 60) & (out["a_id"] < 60)]["edit_distance"]
    d61 = out[(out["b_id"] == 61) & (out["a_id"] < 60)]["edit_distance"]
    assert len(d60) == 60 and (d60 == exp60).all()
    assert len(d61) == 60 and (d61 == exp61).all()
    assert (out["edit_distance"] <= 16).all()
