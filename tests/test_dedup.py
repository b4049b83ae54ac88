"""Dedup + similarity + multimodal operator tests (Ray)."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

BASE = (
    "the streaming frontier engine fetches forum pages and extracts "
    "interleaved spans of text and media for training data pipelines"
)

DOCS = [
    (0, BASE),
    (1, BASE + " extra"),  # near-dup of 0
    (2, BASE.replace("forum", "board")),  # near-dup of 0
    (3, "completely unrelated content about cooking pasta with tomatoes"),
    (4, "another distinct document mentioning graph algorithms and heaps"),
    (5, BASE),  # exact dup of 0
]


def docs_ds():
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([d for d, _ in DOCS], pa.int64()),
                "text": pa.array([t for _, t in DOCS], pa.string()),
            }
        )
    )


def test_exact_dedup(ray_session):
    from bbcrawl_ray.stages.dedup import exact_dedup

    out = exact_dedup(docs_ds()).to_pandas().sort_values("doc_id").reset_index(drop=True)
    # doc 5 collapses into doc 0's group
    assert len(out) == 5
    grp0 = out[out.doc_id == 0]
    assert int(grp0["dup_count"].iloc[0]) == 2


def test_minhash_dedup_clusters(ray_session):
    from bbcrawl_ray.stages.dedup import minhash_dedup

    clusters = minhash_dedup(docs_ds(), threshold=0.6).to_pandas()
    by_doc = dict(zip(clusters["doc_id"], clusters["cluster_id"]))
    assert by_doc[0] == by_doc[1] == by_doc[2] == by_doc[5] == 0
    assert 3 not in by_doc and 4 not in by_doc  # distinct docs uncluster


def test_jaccard_and_shingles():
    from bbcrawl_ray.stages.dedup import char_shingles

    import numpy as np

    a, b = char_shingles(BASE), char_shingles(BASE + " extra")
    inter = np.intersect1d(a, b).size
    assert inter / (a.size + b.size - inter) > 0.8
    c = char_shingles("totally different")
    inter_c = np.intersect1d(a, c).size
    assert inter_c / (a.size + c.size - inter_c) < 0.1


def test_simhash_near_dup(ray_session):
    from bbcrawl_ray.stages.dedup import simhash_near_dup, simhash64

    assert simhash64(BASE) == simhash64(BASE)
    pairs = simhash_near_dup(docs_ds(), max_hamming=6).to_pandas()
    got = {tuple(x) for x in pairs[["left_id", "right_id"]].to_numpy()}
    assert (0, 5) in got  # exact dup → hamming 0
    assert (0, 1) in got or (0, 2) in got  # near-dups within radius
    assert (3, 4) not in got


def _simhash_corpus(n_base=30, seed=11):
    """Random texts + mutated variants spanning a spread of hamming
    distances (mutation = replacing k tokens shifts a handful of bits)."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(400)]

    def txt(tokens):
        return " ".join(tokens)

    docs = []
    for i in range(n_base):
        toks = list(rng.choice(vocab, size=60))
        docs.append(txt(toks))
        # variants at increasing mutation strength → hamming spectrum,
        # including pairs past the old 8×8-band guarantee (8-15 bits)
        for k in (1, 2, 4, 7, 12, 20):
            mut = list(toks)
            for j in rng.choice(60, size=k, replace=False):
                mut[j] = str(rng.choice(vocab))
            docs.append(txt(mut))
    return docs


@pytest.mark.parametrize("max_hamming", [3, 10])
def test_simhash_recall_at_advertised_radius(ray_session, max_hamming):
    """Pipeline pair set == brute-force all-pairs set at the advertised
    radius (recall AND precision 1.0) — the round-2 verdict's silent
    recall gap: 8×8-bit bands only guaranteed hamming ≤ 7, so planted
    pairs at 8-10 could vanish. Banding now derives from the radius."""
    from bbcrawl_ray.stages.dedup import simhash_batch, simhash_near_dup, _popcount64

    docs = _simhash_corpus()
    hs = simhash_batch(docs)
    n = len(docs)
    brute = set()
    boundary = 0  # pairs in (7, max_hamming] — the previously-missed band
    for i in range(n - 1):
        d = _popcount64(hs[i + 1 :] ^ hs[i])
        for off in np.nonzero(d <= max_hamming)[0]:
            brute.add((i, i + 1 + int(off)))
            if d[off] > 7:
                boundary += 1
    if max_hamming == 10:
        assert boundary > 0, "corpus must plant pairs at hamming 8-10"
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(docs, pa.string()),
            }
        )
    )
    got_df = simhash_near_dup(ds, max_hamming=max_hamming).to_pandas()
    got = {tuple(x) for x in got_df[["left_id", "right_id"]].to_numpy()}
    assert got == brute
    assert len(got_df) == len(got)  # globally unique pair stream


def test_ngram_jaccard_pairs_bruteforce_parity(ray_session):
    """Engine pair set + integer inter/union columns == python-set brute
    force over word trigrams, at τ = 0.5 (exact operator, no LSH)."""
    from bbcrawl_ray.stages.dedup import ngram_jaccard_pairs

    docs = _simhash_corpus(n_base=10, seed=3)  # base docs + mutated variants
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(len(docs)), pa.int64()),
                "text": pa.array(docs, pa.string()),
            }
        )
    )
    got = (
        ngram_jaccard_pairs(ds, n=3, threshold_num=1, threshold_den=2)
        .to_pandas()
        .sort_values(["left_id", "right_id"])
        .reset_index(drop=True)
    )

    def grams(t):
        w = t.split()
        return {" ".join(w[i : i + 3]) for i in range(len(w) - 2)}

    gs = [grams(t) for t in docs]
    brute = []
    for i in range(len(docs)):
        for j in range(i + 1, len(docs)):
            inter = len(gs[i] & gs[j])
            union = len(gs[i] | gs[j])
            if union and 2 * inter >= union:
                brute.append((i, j, inter, union))
    import pandas as pd

    want = pd.DataFrame(
        brute, columns=["left_id", "right_id", "inter", "union_n"]
    ).sort_values(["left_id", "right_id"]).reset_index(drop=True)
    assert len(want) > 0  # corpus must contain real near-dups
    pd.testing.assert_frame_equal(got.astype("int64"), want.astype("int64"))


def test_simhash_bands_derivation():
    from bbcrawl_ray.stages.dedup import simhash_bands

    assert simhash_bands(0) == (2, 32)
    assert simhash_bands(3) == (4, 16)
    assert simhash_bands(7) == (8, 8)
    assert simhash_bands(10) == (16, 4)
    assert simhash_bands(31) == (32, 2)
    with pytest.raises(ValueError):
        simhash_bands(32)


def test_embedding_near_dup_and_knn(ray_session):
    from bbcrawl_ray.stages.dedup import embedding_near_dup
    from bbcrawl_ray.stages.similarity import knn_brute

    rng = np.random.default_rng(7)
    X = rng.standard_normal((50, 16)).astype(np.float32)
    X[10] = X[3] + rng.standard_normal(16).astype(np.float32) * 0.01  # near-dup pair
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(50), pa.int64()),
                "embedding": pa.array([r.tolist() for r in X], pa.list_(pa.float32())),
            }
        )
    )
    pairs = embedding_near_dup(ds, threshold=0.98, n_planes=6).to_pandas()
    assert (3, 10) in {tuple(x) for x in pairs[["left_id", "right_id"]].to_numpy()}

    # knn vs numpy oracle
    knn = knn_brute(ds, X[:2], [0, 1], k=3)
    Xn = X.astype(np.float64)
    Xn = Xn / np.linalg.norm(Xn, axis=1, keepdims=True)
    S = Xn[:2] @ Xn.T
    for qid in (0, 1):
        scores = S[qid].copy()
        scores[qid] = -np.inf
        expect = list(np.argsort(-scores)[:3])
        got = list(knn[knn.query_id == qid].sort_values("rank")["neighbor_id"])
        assert got == expect


def test_knn_ivf_mostly_agrees(ray_session):
    from bbcrawl_ray.stages.similarity import knn_brute, knn_ivf

    rng = np.random.default_rng(11)
    X = rng.standard_normal((200, 8)).astype(np.float32)
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(200), pa.int64()),
                "embedding": pa.array([r.tolist() for r in X], pa.list_(pa.float32())),
            }
        )
    )
    exact = knn_brute(ds, X[:3], [0, 1, 2], k=5)
    approx = knn_ivf(ds, X[:3], [0, 1, 2], k=5, n_cells=8, n_probe=4)
    # recall@5 ≥ 0.6 across the 3 queries (probing half the cells)
    hits = 0
    for qid in (0, 1, 2):
        e = set(exact[exact.query_id == qid]["neighbor_id"])
        a = set(approx[approx.query_id == qid]["neighbor_id"])
        hits += len(e & a)
    assert hits >= 9


def test_decode_media_plumbing(ray_session):
    from bbcrawl_ray.stages.multimodal import DecodeConfig, DecodeMedia, decode_media, frame_sample

    media = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(["d1", "d2"], pa.string()),
                "media_ref": pa.array(["u1", "u2"], pa.string()),
                "media_type": pa.array(["image/jpeg", "video/mp4"], pa.string()),
                "payload": pa.array([b"\x01\x02", b"\x03\x04\x05"], pa.large_binary()),
            }
        )
    )
    feats = decode_media(media, concurrency=(1, 2))
    df = feats.to_pandas()
    assert list(df.columns) == [
        "doc_id", "media_ref", "media_type", "width", "height", "n_frames", "feature",
    ]
    assert all(len(f) == 16 for f in df["feature"])
    # deterministic: same payload → same dims
    df2 = decode_media(media, concurrency=(1, 2)).to_pandas()
    assert df["width"].tolist() == df2["width"].tolist()
    sampled = frame_sample(feats, every_nth=1).to_pandas()
    assert len(sampled) == df["n_frames"].sum()
    with pytest.raises(NotImplementedError):
        DecodeMedia(DecodeConfig(backend="real"))


def test_simhash_batch_matches_scalar():
    from bbcrawl_ray.stages.dedup import simhash64, simhash_batch

    texts = [t for _, t in DOCS] + ["", "one", "repeated repeated repeated words words"]
    batch = simhash_batch(texts)
    scalar = np.array([simhash64(t) for t in texts], dtype=np.uint64)
    assert (batch == scalar).all()


def test_cluster_propagate_matches_union_find(ray_session):
    import pandas as pd

    from bbcrawl_ray.stages.dedup import cluster_propagate, connected_components

    rng = np.random.default_rng(3)
    # random graph over 80 nodes incl. chains (diameter > 1)
    edges = set()
    for _ in range(60):
        a, b = sorted(rng.integers(0, 80, size=2).tolist())
        if a != b:
            edges.add((a, b))
    for c in range(0, 30, 10):  # explicit chains c—c+1—...—c+5
        for i in range(5):
            edges.add((c + i, c + i + 1))
    pairs = pd.DataFrame(sorted(edges), columns=["left_id", "right_id"])
    expect = (
        connected_components(pairs).sort_values("doc_id").reset_index(drop=True)
    )
    # distributed label propagation (gate disabled) AND the gated driver
    # path must both match union-find exactly
    for gate in (None, 200_000):
        got = (
            cluster_propagate(rd.from_pandas(pairs), driver_gate=gate)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got.astype({"doc_id": "int64", "cluster_id": "int64"}),
            expect.astype({"doc_id": "int64", "cluster_id": "int64"}),
        )


def test_minhash_dedup_high_dup_rate_parity(ray_session):
    """200-doc corpus at 50% dup rate: distributed pipeline clusters match
    brute-force Jaccard connected components exactly."""
    import pandas as pd

    from bbcrawl_ray.stages.dedup import (
        char_shingles,
        connected_components,
        minhash_dedup,
    )

    rng = np.random.default_rng(17)
    words = [f"tok{i}" for i in range(400)]
    base_docs = [
        " ".join(rng.choice(words, size=40).tolist()) for _ in range(100)
    ]
    docs = []
    for i, b in enumerate(base_docs):
        docs.append((2 * i, b))
        toks = b.split()
        # 50% of docs get a near-dup twin (1-2 token edits)
        toks[rng.integers(0, len(toks))] = rng.choice(words)
        docs.append((2 * i + 1, " ".join(toks)))
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([d for d, _ in docs], pa.int64()),
                "text": pa.array([t for _, t in docs], pa.string()),
            }
        )
    )
    got = (
        minhash_dedup(ds, threshold=0.6)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    # brute-force oracle
    sh = {d: char_shingles(t) for d, t in docs}
    bl, br = [], []
    items = sorted(sh)
    for ii in range(len(items)):
        for jj in range(ii + 1, len(items)):
            a, b = sh[items[ii]], sh[items[jj]]
            inter = np.intersect1d(a, b, assume_unique=True).size
            j = inter / max(1, a.size + b.size - inter)
            if j >= 0.6:
                bl.append(items[ii])
                br.append(items[jj])
    expect = (
        connected_components(pd.DataFrame({"left_id": bl, "right_id": br}))
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got.astype({"doc_id": "int64", "cluster_id": "int64"}),
        expect.astype({"doc_id": "int64", "cluster_id": "int64"}),
    )


def test_ivf_index_prunes_io(ray_session, tmp_path):
    """Probing a built IVF index opens only the n_probe cell directories'
    files, not the whole corpus."""
    from bbcrawl_ray.stages.similarity import (
        _norm_rows,
        _probe_files,
        build_ivf_index,
        knn_ivf_probe,
    )

    rng = np.random.default_rng(23)
    X = rng.standard_normal((300, 8)).astype(np.float32)
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(300), pa.int64()),
                "embedding": pa.array([r.tolist() for r in X], pa.list_(pa.float32())),
            }
        )
    )
    idx = build_ivf_index(ds, str(tmp_path / "ivf"), n_cells=8)
    C = np.load(f"{idx}/centroids.npy")
    assert C.shape[0] == 8
    Q = _norm_rows(X[:2].astype(np.float64))
    cells = set(np.argsort(-(Q @ C.T), axis=1)[:, :2].reshape(-1).tolist())
    probed, total = _probe_files(idx, cells)
    assert 0 < len(probed) < total  # strictly fewer files than the corpus
    out = knn_ivf_probe(idx, X[:2], [0, 1], k=5, n_probe=2)
    assert set(out.columns) == {"query_id", "neighbor_id", "rank"}
    assert (out.groupby("query_id").size() <= 5).all()


def test_resize_media_plumbing(ray_session):
    import pytest as _pytest

    from bbcrawl_ray.stages.multimodal import DecodeConfig, ResizeMedia, resize_media

    media = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(["d1", "d2"], pa.string()),
                "media_ref": pa.array(["u1", "u2"], pa.string()),
                "media_type": pa.array(["image/jpeg", "image/png"], pa.string()),
                "payload": pa.array([b"\x01\x02", b"\x03\x04\x05"], pa.large_binary()),
            }
        )
    )
    out = resize_media(media, DecodeConfig(resize_to=48)).to_pandas()
    assert {"resized_width", "resized_height"} <= set(out.columns)
    assert (out[["resized_width", "resized_height"]].max(axis=1) <= 48).all()
    assert (out[["resized_width", "resized_height"]] >= 1).all().all()
    # deterministic
    out2 = resize_media(media, DecodeConfig(resize_to=48)).to_pandas()
    assert out.equals(out2)
    with _pytest.raises(NotImplementedError):
        ResizeMedia(DecodeConfig(backend="real"))


def test_exact_dedup_keep_first(ray_session):
    from bbcrawl_ray.stages.dedup import exact_dedup_keep_first

    out = (
        exact_dedup_keep_first(docs_ds().repartition(3))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # doc 5 (exact dup of 0) collapses; the survivor is the MIN doc_id
    assert out["doc_id"].tolist() == [0, 1, 2, 3, 4]
    assert set(out.columns) >= {"doc_id", "text"}


def test_verify_join_path_matches_broadcast_path(ray_session):
    """The size-gated broadcast transport and the join transport must
    produce identical verified pairs."""
    import pandas as pd

    from bbcrawl_ray.pipelines.relops import distinct
    from bbcrawl_ray.stages.dedup import minhash_candidates, verify_pairs_distributed

    ds = docs_ds()
    cands = distinct(minhash_candidates(ds), ["left_id", "right_id"])
    a = (
        verify_pairs_distributed(cands, ds, threshold=0.6, broadcast_gates=True)
        .to_pandas()
        .sort_values(["left_id", "right_id"])
        .reset_index(drop=True)
    )
    b = (
        verify_pairs_distributed(cands, ds, threshold=0.6, broadcast_gates=False)
        .to_pandas()
        .sort_values(["left_id", "right_id"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    assert len(a) > 0


def test_ivf_cache_rebuilds_on_changed_corpus(ray_session, tmp_path):
    """Same row count + same cache key but different vectors must NOT
    serve the stale index (content probe in meta.json)."""
    import os

    from bbcrawl_ray.stages.similarity import knn_ivf

    def make_ds(seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((120, 8)).astype(np.float32)
        return X, rd.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array(range(120), pa.int64()),
                    "embedding": pa.array([r.tolist() for r in X], pa.list_(pa.float32())),
                }
            )
        )

    key = str(tmp_path / "corpus")  # cache key, deterministic dir derives from it
    X1, ds1 = make_ds(1)
    r1 = knn_ivf(ds1, X1[:1], [0], k=3, n_cells=4, n_probe=4, cache_key=key)
    X2, ds2 = make_ds(2)  # same size, different content
    r2 = knn_ivf(ds2, X2[:1], [0], k=3, n_cells=4, n_probe=4, cache_key=key)
    # n_probe=4 of 4 cells = exact: results must reflect EACH corpus
    import numpy as np_

    def brute(X):
        Xn = X.astype(np_.float64)
        Xn = Xn / np_.linalg.norm(Xn, axis=1, keepdims=True)
        s = Xn[0] @ Xn.T
        s[0] = -np_.inf
        return list(np_.argsort(-s)[:3])

    assert sorted(r1["neighbor_id"]) == sorted(brute(X1))
    assert sorted(r2["neighbor_id"]) == sorted(brute(X2))


def test_batch_signatures_match_scalar_path():
    """minhash_signatures_batch (concat + reduceat) must equal the
    per-doc minhash_signature(char_shingles(t)) reference exactly,
    including empty and shorter-than-k texts."""
    import numpy as np

    from bbcrawl_ray.stages.dedup import (
        char_shingles,
        minhash_signature,
        minhash_signatures_batch,
    )

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "",
        "ab",
        "the quick brown fox jumps over the lazy cat",
        "x" * 500,
        "completely different content here with many words",
    ]
    batch = minhash_signatures_batch(texts)
    for i, t in enumerate(texts):
        ref = minhash_signature(char_shingles(t))
        assert np.array_equal(batch[i], ref), f"doc {i} diverged"


def test_ngram_hash_no_symmetric_window_collision(ray_session):
    """4-gram windows that mirror their end tokens ('x b c x' vs
    'y b c y') must NOT hash equal — a fixed cycle of XORed position
    constants cancelled them and reported disjoint docs as exact
    duplicates at n=4."""
    import pandas as pd
    import ray.data as rd

    from bbcrawl_ray.stages.dedup import ngram_jaccard_pairs

    docs = pd.DataFrame(
        {
            "doc_id": [1, 2],
            "text": ["x b c x", "y b c y"],
        }
    )
    out = ngram_jaccard_pairs(
        rd.from_pandas(docs), n=4, threshold_num=1, threshold_den=100
    ).to_pandas()
    # the two docs share NO 4-gram; even at a 1% threshold no pair may
    # surface
    assert len(out) == 0


def test_band_table_preserves_string_ids_and_rejects_bad_banding(ray_session):
    """String-id corpora band with string doc_ids (including EMPTY
    batches — an inferred numpy repeat used to emit int64 empty blocks
    the stream can't unify), and an over-wide banding config raises a
    clear error instead of a reshape crash."""
    import pyarrow as pa
    import pytest

    from bbcrawl_ray.stages.dedup import MinHashStage, _band_table
    import numpy as np

    stage = MinHashStage(id_col="doc_id", text_col="text")
    full = pa.table({"doc_id": pa.array(["a", "b"]), "text": pa.array(["xx yy zz ww", "xx yy zz wv"])})
    empty = full.slice(0, 0)
    out_full, out_empty = stage(full), stage(empty)
    assert out_full["doc_id"].type == pa.string()
    assert out_empty["doc_id"].type == pa.string()
    assert out_empty.num_rows == 0

    with pytest.raises(ValueError, match="rows_per_band"):
        _band_table(full["doc_id"], np.zeros((2, 64), np.uint64), bands=20, rpb=4)


def test_minhash_exact_collapse_parity(ray_session):
    """collapse_exact=True (unique-representative pipeline + expansion)
    must produce EXACTLY the clusters of the uncollapsed pipeline on a
    corpus mixing exact clones, near-dups and uniques."""
    import pandas as pd
    import ray.data as rd

    from bbcrawl_ray.stages.dedup import minhash_dedup

    base = "the quick brown fox jumps over the lazy dog and then naps in the warm sun"
    rows = []
    # 5 exact-clone families of 4
    for f in range(5):
        for c in range(4):
            rows.append((f * 10 + c, f"family {f}: {base} variant text body"))
    # near-dup pair bridging two clone families' texts
    rows.append((100, f"family 0: {base} variant text body!!"))
    # uniques
    for u in range(6):
        rows.append((200 + u, f"completely unrelated document {u} " + "z" * (20 + u)))
    df = pd.DataFrame(rows, columns=["doc_id", "text"])

    a = (
        minhash_dedup(rd.from_pandas(df), threshold=0.5, collapse_exact=False)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    b = (
        minhash_dedup(rd.from_pandas(df), threshold=0.5, collapse_exact=True)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    assert len(a) > 0


def test_ngram_exact_collapse_parity(ray_session):
    """ngram_jaccard_pairs with the exact-collapse stage must emit the
    IDENTICAL pair set (ids, inter, union_n) as the uncollapsed
    pipeline on a corpus with clone groups, near-dups, uniques, and a
    clone group whose text yields zero grams."""
    import pandas as pd
    import ray.data as rd

    from bbcrawl_ray.stages.dedup import ngram_jaccard_pairs

    rows = []
    for c in range(3):  # clone family A (has grams)
        rows.append((10 + c, "alpha beta gamma delta epsilon zeta"))
    for c in range(2):  # clone family B, near-dup of A
        rows.append((20 + c, "alpha beta gamma delta epsilon eta"))
    rows.append((30, "totally different words here now"))
    for c in range(2):  # clone family with <n tokens -> zero grams
        rows.append((40 + c, "too short"))
    df = pd.DataFrame(rows, columns=["doc_id", "text"])

    def run(collapse):
        out = ngram_jaccard_pairs(
            rd.from_pandas(df), n=3, threshold_num=1, threshold_den=2,
            collapse_exact=collapse,
        ).to_pandas()
        return out.sort_values(["left_id", "right_id"]).reset_index(drop=True)

    a, b = run(False), run(True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    # clone family A alone contributes C(3,2)=3 exact pairs
    assert len(a) >= 3


def test_minhash_edge_corpora(ray_session):
    """Edge corpora through the default (collapse) pipeline:
    - exact-dup-only corpus must NOT crash the expansion join (labels
      are empty) and must match the uncollapsed transport;
    - >=2 empty-text docs must NOT cluster (empty shingle sets never
      verify in the uncollapsed pipeline) — collapse parity holds;
    - a duplicate-free corpus returns an EMPTY but SCHEMA-TYPED result
      through the schema-safe collector."""
    import pandas as pd
    import ray.data as rd

    from bbcrawl_ray.pipelines.relops import to_pandas_schema_safe
    from bbcrawl_ray.stages.dedup import minhash_dedup

    dup_only = pd.DataFrame(
        {"doc_id": [1, 2, 3, 4],
         "text": ["clone text here body", "clone text here body",
                  "unique aaaa", "unique bbbb"]}
    )
    empties = pd.DataFrame(
        {"doc_id": [1, 2, 3, 4],
         "text": ["", "", "the quick brown fox naps", "the quick brown fox napped"]}
    )
    nodups = pd.DataFrame(
        {"doc_id": [1, 2],
         "text": ["aaaa bbbb cccc dddd", "eeee ffff gggg hhhh"]}
    )
    for df in (dup_only, empties):
        a = to_pandas_schema_safe(
            minhash_dedup(rd.from_pandas(df), threshold=0.5, collapse_exact=False)
        ).sort_values("doc_id").reset_index(drop=True)
        b = to_pandas_schema_safe(
            minhash_dedup(rd.from_pandas(df), threshold=0.5, collapse_exact=True)
        ).sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)
    out = to_pandas_schema_safe(
        minhash_dedup(rd.from_pandas(nodups), threshold=0.5)
    )
    assert list(out.columns) == ["doc_id", "cluster_id"]
    assert len(out) == 0


def test_simhash_exact_collapse_parity(ray_session):
    """simhash collapse expansion must emit the IDENTICAL pair set
    (ids + hamming) as the uncollapsed pipeline — including EMPTY-text
    clone groups, which DO pair at distance 0 (simhash('') == 0)."""
    import pandas as pd
    import ray.data as rd

    from bbcrawl_ray.stages.dedup import simhash_near_dup

    base = "the quick brown fox jumps over the lazy dog again and again today"
    rows = []
    for c in range(3):
        rows.append((10 + c, base))                      # clone family
    rows.append((20, base + " extra"))                   # near-dup of family
    rows.append((30, "utterly different content whatsoever right here"))
    for c in range(2):
        rows.append((40 + c, ""))                        # empty-text clones
    df = pd.DataFrame(rows, columns=["doc_id", "text"])

    def run(collapse):
        out = simhash_near_dup(
            rd.from_pandas(df), max_hamming=6, collapse_exact=collapse
        ).to_pandas()
        return out.sort_values(["left_id", "right_id"]).reset_index(drop=True)

    a, b = run(False), run(True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    # the clone family contributes C(3,2)=3 distance-0 pairs; the empty
    # pair (40,41) must be present in BOTH
    assert {(40, 41)} <= set(zip(a["left_id"], a["right_id"]))


def test_minhash_string_ids_through_collapse(ray_session):
    """String doc_ids survive the WHOLE collapse pipeline (mapping,
    representatives, expansion joins, grouped min) with identical
    clusters on both transports — min-id semantics are lexicographic."""
    import pandas as pd
    import ray.data as rd

    from bbcrawl_ray.stages.dedup import minhash_dedup

    base = "shared body of text that repeats in every clone exactly"
    rows = [
        ("doc-a1", base), ("doc-a2", base), ("doc-a3", base),
        ("doc-b1", base + " nearly"), ("doc-c1", "something else entirely here"),
    ]
    df = pd.DataFrame(rows, columns=["doc_id", "text"])
    a = minhash_dedup(
        rd.from_pandas(df), threshold=0.5, collapse_exact=False
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = minhash_dedup(
        rd.from_pandas(df), threshold=0.5, collapse_exact=True
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    assert set(a["cluster_id"]) == {"doc-a1"}
    assert len(a) >= 4  # the 3 clones + the near-dup all cluster


def test_representatives_join_path_parity(ray_session, monkeypatch):
    """representatives() above the broadcast byte gate (forced with
    ``SMALL_BYTES`` = 0) must yield the same unique-text corpus as the
    broadcast filter path."""
    import pandas as pd
    import ray.data as rd

    from bbcrawl_ray.pipelines import relops as R
    from bbcrawl_ray.stages.dedup import exact_collapse, representatives

    rows = [(i, f"text body {i % 4} shared") for i in range(12)]
    df = pd.DataFrame(rows, columns=["doc_id", "text"])
    ds = rd.from_pandas(df)
    mapping = exact_collapse(ds).materialize()

    def collect(budget):
        with monkeypatch.context() as m:
            m.setattr(R, "SMALL_BYTES", budget)
            out = representatives(ds, mapping).to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)

    a = collect(64 << 20)   # broadcast filter path
    b = collect(0)          # forced hash-join path
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    assert len(a) == 4 and set(a["doc_id"]) == {0, 1, 2, 3}


def test_exact_dedup_counts_rows_with_null_ids(ray_session, monkeypatch):
    """exact_dedup's dup_count counts ROWS, null ids included, and the
    min id skips nulls — on the coalesced combine and on the engine
    groupby (``SMALL_BYTES`` = 0) alike."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from bbcrawl_ray.pipelines import relops as R
    from bbcrawl_ray.stages.dedup import exact_dedup

    src = rd.from_arrow(
        [
            pa.table(
                {
                    "doc_id": pa.array([1, None, 2], pa.int64()),
                    "text": ["a", "a", "b"],
                }
            ),
            pa.table({"doc_id": pa.array([None, 3], pa.int64()), "text": ["c", "a"]}),
        ]
    )
    for budget in (64 << 20, 0):
        with monkeypatch.context() as m:
            m.setattr(R, "SMALL_BYTES", budget)
            out = exact_dedup(src).to_pandas()
        got = {
            (None if pd.isna(v) else int(v), int(c))
            for v, c in zip(out["doc_id"], out["dup_count"])
        }
        assert got == {(1, 3), (2, 1), (None, 1)}, (budget, out)


def test_adaptive_probe_decisions(ray_session):
    """The "auto" knob's two-stage probe: the shuffle-free HLL estimate
    alone skips a clearly-low-dup corpus (mapping None, no keyed
    shuffle), engages on a clone-heavy corpus, and its estimate tracks
    the true dup rate well inside the guard band."""
    import pandas as pd
    import ray.data as rd

    from bbcrawl_ray.stages.dedup import _adaptive_mapping, _approx_dup_rate

    # 2000 docs, all unique -> dup rate 0, far below the threshold
    uniq = pd.DataFrame(
        {"doc_id": range(2000), "text": [f"unique document body {i}" for i in range(2000)]}
    )
    n, est = _approx_dup_rate(rd.from_pandas(uniq), "text")
    assert n == 2000
    assert est < 0.05
    assert _adaptive_mapping(rd.from_pandas(uniq), "doc_id", "text", "auto") is None

    # 2000 docs, 10x-cloned (one family per 10 rows) -> dup rate 0.9
    dup = pd.DataFrame(
        {"doc_id": range(2000), "text": [f"clone family {i // 10} body" for i in range(2000)]}
    )
    n, est = _approx_dup_rate(rd.from_pandas(dup), "text")
    assert n == 2000
    assert abs(est - 0.9) < 0.05
    mapping = _adaptive_mapping(rd.from_pandas(dup), "doc_id", "text", "auto")
    assert mapping is not None
    m = mapping.to_pandas()
    assert (m.groupby("rep_id")["doc_id"].transform("min") == m["rep_id"]).all()

    # empty corpus: probe reports (0, 0.0) and auto skips
    empty = rd.from_pandas(uniq.iloc[0:0])
    assert _approx_dup_rate(empty, "text") == (0, 0.0)
    assert _adaptive_mapping(empty, "doc_id", "text", "auto") is None


def test_pack_unpack_vectors_roundtrip():
    """Vectors survive the fixed-size-binary reinterpret used to ride
    engine hash joins, including through a table slice (offset != 0)."""
    import numpy as np
    import pyarrow as pa

    from bbcrawl_ray.stages.similarity import pack_vectors, unpack_vectors

    X = np.arange(40, dtype=np.float32).reshape(10, 4) / 7.0
    t = pa.table(
        {"vec_id": pa.array(range(10), pa.int64()), "embedding": list(X)}
    )
    packed = pack_vectors(t)
    assert packed["emb_bin"].type == pa.binary(16)
    back = unpack_vectors(packed)
    Y = np.stack(back["embedding"].to_numpy(zero_copy_only=False))
    assert np.array_equal(X, Y)
    # sliced table: offset-aware buffer reinterpret
    back2 = unpack_vectors(packed.slice(3, 4))
    Y2 = np.stack(back2["embedding"].to_numpy(zero_copy_only=False))
    assert np.array_equal(X[3:7], Y2)


def test_sniff_media_headers_real_bytes():
    """Codec-free header sniff parses genuine PNG/GIF/JPEG bytes (built
    here byte-by-byte per spec — no image library involved)."""
    import struct

    import pyarrow as pa

    from bbcrawl_ray.stages.multimodal import SniffMediaHeaders, sniff_media_header

    png = (
        b"\x89PNG\r\n\x1a\n"
        + struct.pack(">I", 13) + b"IHDR"
        + struct.pack(">IIBBBBB", 640, 480, 8, 2, 0, 0, 0)
    )
    gif = b"GIF89a" + struct.pack("<HH", 320, 200) + b"\x00\x00\x00"
    # JPEG: SOI, APP0 (JFIF stub), then SOF0 with height=100, width=250
    jpeg = (
        b"\xff\xd8"
        + b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00" + b"\x00" * 9
        + b"\xff\xc0" + struct.pack(">H", 11) + b"\x08"
        + struct.pack(">HH", 100, 250) + b"\x01\x11\x00"
    )
    assert sniff_media_header(png) == ("png", 640, 480)
    assert sniff_media_header(gif) == ("gif", 320, 200)
    assert sniff_media_header(jpeg) == ("jpeg", 250, 100)
    assert sniff_media_header(b"not an image") == ("unknown", 0, 0)
    assert sniff_media_header(b"") == ("unknown", 0, 0)
    assert sniff_media_header(b"\x89PNG\r\n\x1a\n trunc") == ("unknown", 0, 0)

    t = pa.table(
        {
            "doc_id": pa.array(["a", "b", "c", "d"], pa.string()),
            "media_ref": pa.array(["p", "g", "j", "x"], pa.string()),
            "payload": pa.array([png, gif, jpeg, b"zz"], pa.large_binary()),
        }
    )
    out = SniffMediaHeaders()(t).to_pandas()
    assert out["format"].tolist() == ["png", "gif", "jpeg", "unknown"]
    assert out["width"].tolist() == [640, 320, 250, 0]
    assert out["height"].tolist() == [480, 200, 100, 0]


def test_sniff_media_header_malformed_and_fill_bytes():
    """Corrupt PNG dims degrade to zeros (no int32 overflow crash), and
    JPEG fill bytes / EOI are handled per spec."""
    import struct

    from bbcrawl_ray.stages.multimodal import sniff_media_header

    bad_png = b"\x89PNG\r\n\x1a\n" + struct.pack(">I", 13) + b"IHDR" + b"\xff" * 13
    assert sniff_media_header(bad_png) == ("png", 0, 0)
    # JPEG with a fill byte (0xFF 0xFF 0xC0 ...) before the SOF marker
    jpeg_fill = (
        b"\xff\xd8"
        + b"\xff\xff"  # legal fill byte then marker start
        + b"\xc0"[0:0]  # (fill continues into the real marker below)
        + b"\xff\xc0" + struct.pack(">H", 11) + b"\x08"
        + struct.pack(">HH", 10, 20) + b"\x01\x11\x00"
    )
    assert sniff_media_header(jpeg_fill) == ("jpeg", 20, 10)
    # EOI before any SOF: dimensions unknown, no crash
    assert sniff_media_header(b"\xff\xd8\xff\xd9" + b"\x00" * 8) == ("jpeg", 0, 0)


FAMILY_COLS = [
    ("minhash_dedup", ["doc_id", "cluster_id"]),
    ("ngram_jaccard_pairs", ["left_id", "right_id", "inter", "union_n"]),
    ("simhash_near_dup", ["left_id", "right_id", "hamming"]),
]


@pytest.mark.parametrize("family, cols", FAMILY_COLS)
def test_exact_collapse_empty_corpus_typed(ray_session, family, cols):
    """An empty corpus through the exact-collapse expansion returns an
    empty, schema-typed result: the empty mapping carries no schema, so
    the id type comes from the input."""
    from bbcrawl_ray.pipelines.relops import to_pandas_schema_safe
    from bbcrawl_ray.stages import dedup as D

    empty = rd.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    )
    out = to_pandas_schema_safe(getattr(D, family)(empty, collapse_exact=True))
    assert len(out) == 0
    assert list(out.columns) == cols
    assert str(out[cols[0]].dtype) == "int64"


@pytest.mark.parametrize("budget", ["small", "zero"])
@pytest.mark.parametrize("family, cols", FAMILY_COLS)
def test_pairless_corpus_typed(ray_session, monkeypatch, family, cols, budget):
    """Documents that share no word 3-gram and are no near-dups of each
    other give each family its usual columns and types with no rows,
    on both sides of the ``SMALL_BYTES`` gate: Ray's map over zero rows
    leaves no schema, so each early exit types its own result."""
    from bbcrawl_ray.pipelines import relops as R
    from bbcrawl_ray.pipelines.relops import to_pandas_schema_safe
    from bbcrawl_ray.stages import dedup as D

    if budget == "zero":
        monkeypatch.setattr(R, "SMALL_BYTES", 0)
    corpus = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": [
                    "alpha beta gamma delta",
                    "one two three four",
                    "red green blue cyan",
                    "north south east west",
                ],
            }
        )
    )
    out = to_pandas_schema_safe(getattr(D, family)(corpus, collapse_exact=False))
    assert len(out) == 0
    assert list(out.columns) == cols
    assert [str(t) for t in out.dtypes] == ["int64"] * len(cols)


@pytest.mark.parametrize("budget", ["small", "zero"])
def test_string_id_corpus_without_near_dups_keeps_id_type(ray_session, monkeypatch, budget):
    """A string-id corpus with no near-duplicate gives a typed empty
    (doc_id, cluster_id) of string ids, like its non-empty results, on
    both sides of the ``SMALL_BYTES`` gate — and so does
    ``cluster_propagate`` on an empty string-id pair stream."""
    from bbcrawl_ray.pipelines import relops as R
    from bbcrawl_ray.stages import dedup as D

    if budget == "zero":
        monkeypatch.setattr(R, "SMALL_BYTES", 0)
    corpus = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(["doc-a", "doc-b"], pa.string()),
                "text": ["alpha beta gamma delta epsilon", "one two three four five six"],
            }
        )
    )
    empty_pairs = rd.from_arrow(
        pa.table({"left_id": pa.array([], pa.string()), "right_id": pa.array([], pa.string())})
    )
    for out in (D.minhash_dedup(corpus), D.cluster_propagate(empty_pairs)):
        assert out.count() == 0
        schema = out.schema()
        assert list(schema.names) == ["doc_id", "cluster_id"]
        assert list(schema.types) == [pa.string(), pa.string()]
