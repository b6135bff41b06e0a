import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dast_lab import dmsr
from dast_lab.dmsr import (
    ExemplarIndex,
    ExemplarRecord,
    IndexFormatError,
    add_exemplar,
    brute_force_oracle,
    load,
    query,
    retrieve_report,
    save,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def record(seed, sid, width=6):
    r = rng(seed)
    return ExemplarRecord(sid, r.normal(size=width), r.normal(size=14), f"report {sid}")


def filled_index(n, width=6, seed=100):
    idx = ExemplarIndex(width=width)
    for i in range(n):
        add_exemplar(idx, record(seed + i, f"s{i:03d}", width))
    return idx


def test_add_and_size():
    idx = ExemplarIndex(width=6)
    add_exemplar(idx, record(1, "a"))
    assert len(idx) == 1


def test_duplicate_id_rejected():
    idx = ExemplarIndex(width=6)
    add_exemplar(idx, record(1, "a"))
    with pytest.raises(ValueError, match="duplicate"):
        add_exemplar(idx, record(2, "a"))


def test_width_mismatch_rejected():
    idx = ExemplarIndex(width=6)
    with pytest.raises(ValueError, match="width"):
        add_exemplar(idx, record(1, "a", width=5))


def test_zero_norm_vector_rejected():
    idx = ExemplarIndex(width=6)
    with pytest.raises(ValueError, match="zero-norm"):
        add_exemplar(idx, ExemplarRecord("z", np.zeros(6), np.ones(14), "r"))


def test_thousand_inserts_preserve_order():
    idx = filled_index(1000, width=3)
    assert len(idx) == 1000
    assert [r.study_id for r in idx.records] == [f"s{i:03d}" for i in range(1000)]


def test_lambda_zero_matches_visual_only_ranking():
    idx = filled_index(30)
    q = record(999, "q")
    got = query(idx, q.z_bar, q.logits, lam=0.0, k=30)
    visual = sorted(
        ((r.study_id, float(np.dot(q.z_bar, r.z_bar)
                            / (np.linalg.norm(q.z_bar) * np.linalg.norm(r.z_bar))))
         for r in idx.records),
        key=lambda t: -t[1],
    )
    assert [sid for sid, _ in got] == [sid for sid, _ in visual]


def test_exact_match_scores_two():
    idx = filled_index(10)
    target = idx.records[4]
    got = query(idx, target.z_bar, target.logits, lam=1.0, k=1)
    assert got[0][0] == "s004"
    assert abs(got[0][1] - 2.0) < 1e-12


def test_query_matches_oracle_on_random_db():
    idx = filled_index(50, seed=500)
    q = record(987, "q")
    a = query(idx, q.z_bar, q.logits, lam=0.5, k=5)
    b = brute_force_oracle(idx, q.z_bar, q.logits, lam=0.5, k=5)
    assert a == b  # ranking and exact float scores


def test_oracle_single_record():
    idx = filled_index(1)
    q = record(5, "q")
    out = brute_force_oracle(idx, q.z_bar, q.logits, lam=0.5, k=3)
    assert len(out) == 1 and out[0][0] == "s000"


def test_tie_break_by_insertion_order():
    idx = ExemplarIndex(width=4)
    vec = np.array([1.0, 0.0, 0.0, 0.0])
    logits = np.ones(14)
    add_exemplar(idx, ExemplarRecord("first", vec, logits, "r1"))
    add_exemplar(idx, ExemplarRecord("second", vec * 3.0, logits, "r2"))  # same cosines
    got = query(idx, vec, logits, lam=0.7, k=2)
    oracle = brute_force_oracle(idx, vec, logits, lam=0.7, k=2)
    assert [sid for sid, _ in got] == ["first", "second"]
    assert got == oracle


def test_ranking_insensitive_to_insertion_when_scores_distinct():
    base = [record(700 + i, f"s{i}") for i in range(8)]
    q = record(999, "q")
    idx1 = ExemplarIndex(width=6)
    for r in base:
        add_exemplar(idx1, r)
    idx2 = ExemplarIndex(width=6)
    for r in reversed(base):
        add_exemplar(idx2, r)
    r1 = query(idx1, q.z_bar, q.logits, lam=0.5, k=8)
    r2 = query(idx2, q.z_bar, q.logits, lam=0.5, k=8)
    assert [sid for sid, _ in r1] == [sid for sid, _ in r2]


def test_self_exclusion():
    idx = filled_index(20)
    target = idx.records[7]
    got = query(idx, target.z_bar, target.logits, lam=0.5, k=20, exclude_id="s007")
    assert "s007" not in [sid for sid, _ in got]
    assert len(got) == 19


def test_lambda_dominance_monotonicity():
    idx = ExemplarIndex(width=4)
    q_vec = np.array([1.0, 0.0, 0.0, 0.0])
    q_log = np.concatenate([[1.0], np.zeros(13)])
    # A beats B on both cosine terms
    add_exemplar(idx, ExemplarRecord("A", np.array([1.0, 0.1, 0.0, 0.0]),
                                     np.concatenate([[1.0, 0.1], np.zeros(12)]), "a"))
    add_exemplar(idx, ExemplarRecord("B", np.array([1.0, 0.8, 0.0, 0.0]),
                                     np.concatenate([[1.0, 0.9], np.zeros(12)]), "b"))
    for lam in [0.0, 0.25, 0.5, 1.0, 3.0, 10.0]:
        got = query(idx, q_vec, q_log, lam=lam, k=2)
        assert got[0][0] == "A"


def test_cosine_scale_invariance():
    idx = filled_index(5)
    q = record(42, "q")
    base = query(idx, q.z_bar, q.logits, lam=0.5, k=5)
    scaled = query(idx, q.z_bar * 100.0, q.logits * 0.01, lam=0.5, k=5)
    for (s1, v1), (s2, v2) in zip(base, scaled):
        assert s1 == s2 and abs(v1 - v2) < 1e-12


def test_empty_index_and_zero_norm_query_rejected():
    with pytest.raises(ValueError):
        query(ExemplarIndex(width=4), np.ones(4), np.ones(14), lam=0.5)
    idx = filled_index(3)
    with pytest.raises(ValueError):
        query(idx, np.zeros(6), np.ones(14), lam=0.5)


def test_retrieve_report_returns_top1_text():
    idx = filled_index(12)
    target = idx.records[3]
    assert retrieve_report(idx, target.z_bar, target.logits, lam=1.0) == "report s003"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 30),
       lam=st.floats(0.0, 3.0, allow_nan=False), k=st.integers(1, 10))
def test_query_equals_oracle_property(seed, n, lam, k):
    idx = filled_index(n, seed=seed * 37 + 1)
    q = record(seed * 37, "q")
    assert (query(idx, q.z_bar, q.logits, lam=lam, k=k)
            == brute_force_oracle(idx, q.z_bar, q.logits, lam=lam, k=k))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 8),
       scales=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6),
       lam=st.one_of(st.sampled_from([0.0, 100.0]), st.floats(0.0, 100.0)),
       extra_k=st.integers(0, 16), exclude_kth=st.booleans())
def test_query_equals_oracle_with_planted_near_ties(seed, n, scales, lam, extra_k, exclude_kth):
    """Copies of one row scaled by positive constants have mathematically equal
    cosines that differ in the last bits; the query sits on that row, so the
    k-th hit falls among the copies."""
    r = rng(seed)
    idx = filled_index(n, seed=seed * 37 + 1)
    anchor = idx.records[int(r.integers(n))]
    for i, c in enumerate(scales):
        add_exemplar(idx, ExemplarRecord(f"copy{i}", anchor.z_bar * c, anchor.logits / c, "copy"))
    add_exemplar(idx, ExemplarRecord("dup", anchor.z_bar, anchor.logits, "dup"))
    q_z = anchor.z_bar * r.uniform(0.5, 2.0) + r.normal(size=6) * r.choice([0.0, 1e-3])
    k = 1 + extra_k % (len(idx) + 2)  # includes k > N
    exclude_id = None
    if exclude_kth:
        hits = brute_force_oracle(idx, q_z, anchor.logits, lam=lam, k=k)
        exclude_id = hits[-1][0]
    assert (query(idx, q_z, anchor.logits, lam=lam, k=k, exclude_id=exclude_id)
            == brute_force_oracle(idx, q_z, anchor.logits, lam=lam, k=k, exclude_id=exclude_id))


def test_query_after_insert_sees_the_new_record():
    idx = filled_index(20)
    q = record(999, "q")
    assert query(idx, q.z_bar, q.logits, k=3) == brute_force_oracle(idx, q.z_bar, q.logits, k=3)
    add_exemplar(idx, ExemplarRecord("new", q.z_bar * 2.0, q.logits, "new report"))
    got = query(idx, q.z_bar, q.logits, k=3)
    assert got == brute_force_oracle(idx, q.z_bar, q.logits, k=3)
    assert got[0][0] == "new"
    assert retrieve_report(idx, q.z_bar, q.logits) == "new report"


def test_loaded_index_answers_like_the_saved_one(tmp_path):
    idx = filled_index(40, seed=300)
    path = tmp_path / "idx.dmsr"
    save(idx, path)
    back = load(path)
    for i in range(5):
        q = record(2000 + i, "q")
        for exclude_id in (None, "s007"):
            want = query(idx, q.z_bar, q.logits, lam=0.3, k=6, exclude_id=exclude_id)
            assert query(back, q.z_bar, q.logits, lam=0.3, k=6, exclude_id=exclude_id) == want
            assert want == brute_force_oracle(idx, q.z_bar, q.logits, lam=0.3, k=6,
                                              exclude_id=exclude_id)


def test_queries_never_take_the_norm_of_a_stored_row(monkeypatch):
    """add_exemplar computes each stored row's norms once; queries reuse them."""
    idx = filled_index(40, seed=900)
    seen = []
    norm = dmsr.np.linalg.norm

    def spy(x, *args, **kwargs):
        seen.append(np.array(x, copy=True))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(dmsr.np.linalg, "norm", spy)
    for extra in range(3):  # each insert moves the row count, so the unit rows are rebuilt
        if extra:
            add_exemplar(idx, record(4000 + extra, f"extra{extra}"))
        stored = [v for r in idx.records for v in (r.z_bar, r.logits)]
        for q in [record(3000 + 10 * extra + i, "q") for i in range(4)]:
            for lam, k in ((0.5, 5), (0.0, len(idx)), (2.0, 1)):
                want = brute_force_oracle(idx, q.z_bar, q.logits, lam=lam, k=k)
                seen.clear()
                assert query(idx, q.z_bar, q.logits, lam=lam, k=k) == want
                assert len(seen) == 2  # the query's own z_bar and logits
                for x in seen:
                    assert x.ndim == 1
                    assert not any(x.shape == v.shape and np.array_equal(x, v)
                                   for v in stored)


def test_non_finite_query_is_named():
    idx = filled_index(3)
    z, logits = np.ones(6), np.ones(14)
    with pytest.raises(ValueError, match="z_bar"):
        query(idx, np.where(np.arange(6) == 2, np.nan, z), logits)
    with pytest.raises(ValueError, match="logits"):
        query(idx, z, np.where(np.arange(14) == 0, np.inf, logits))
    with pytest.raises(ValueError, match="lambda"):
        query(idx, z, logits, lam=float("nan"))
    with pytest.raises(ValueError, match="lambda"):
        query(idx, z, logits, lam=float("inf"))


# -- persistence ------------------------------------------------------------------


def test_empty_roundtrip(tmp_path):
    idx = ExemplarIndex(width=9)
    path = tmp_path / "idx.dmsr"
    save(idx, path)
    assert load(path) == idx


def test_roundtrip_bit_exact(tmp_path):
    idx = filled_index(3)
    path = tmp_path / "idx.dmsr"
    save(idx, path)
    back = load(path)
    assert back == idx
    for a, b in zip(idx.records, back.records):
        assert a.z_bar.tobytes() == b.z_bar.tobytes()
        assert a.logits.tobytes() == b.logits.tobytes()


def test_corrupted_magic_fails_loudly(tmp_path):
    idx = filled_index(2)
    path = tmp_path / "idx.dmsr"
    save(idx, path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(IndexFormatError, match="magic"):
        load(path)


def test_truncated_file_fails_loudly(tmp_path):
    idx = filled_index(4)
    path = tmp_path / "idx.dmsr"
    save(idx, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(IndexFormatError, match="truncated"):
        load(path)


def test_trailing_garbage_fails_loudly(tmp_path):
    idx = filled_index(2)
    path = tmp_path / "idx.dmsr"
    save(idx, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(IndexFormatError, match="trailing"):
        load(path)
