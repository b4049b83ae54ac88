"""Property-based tests (SURVEY.md §5 item 5) — hypothesis, no Ray."""

import string
from urllib.parse import urlsplit

from hypothesis import given, settings
from hypothesis import strategies as st

from bbcrawl_ray.functions import urlfns
from bbcrawl_ray.functions.urlfns import canonicalize_url, hash64
from bbcrawl_ray.sources.pagers import PagerError, expand_cutter
from bbcrawl_ray.state.seen import _BloomSeen, _CuckooSeen, _ExactSeen

url_path = st.text(alphabet=string.ascii_lowercase + string.digits + "/-_.", max_size=30)
hosts = st.sampled_from(["a.example", "B.Example", "forum.test"])


@given(
    host=hosts,
    path=url_path,
    q=st.lists(
        st.tuples(st.sampled_from("abcz"), st.text(string.ascii_lowercase, max_size=5)),
        max_size=4,
    ),
)
@settings(max_examples=200, deadline=None)
def test_canonicalize_idempotent(host, path, q):
    query = "&".join(f"{k}={v}" for k, v in q)
    url = f"HTTP://{host}:80/{path}?{query}#frag"
    c1 = canonicalize_url(url)
    assert canonicalize_url(c1) == c1  # idempotence
    assert "#" not in c1 and ":80" not in c1
    assert c1.startswith("http://")


@given(
    head=st.sampled_from(["", "/", "//", "http://", "https://", "HTTP://", "http:", "mailto:", " /"]),
    body=st.text(alphabet="ab/.:?#[]@é \t\n\r-", max_size=20),
)
@settings(max_examples=400, deadline=None)
def test_url_path_matches_urlsplit(head, body):
    url = head + body
    try:
        want = urlsplit(url).path
    except ValueError:
        want = ValueError
    try:
        got = urlfns.url_path(url)
    except ValueError:
        got = ValueError
    assert got == want, url


@given(
    prefix=st.text(string.ascii_lowercase + "/", min_size=0, max_size=15),
    suffix=st.text(string.ascii_lowercase + "/.", min_size=0, max_size=10),
    start=st.integers(0, 5),
    extra=st.integers(0, 10),
    step=st.integers(1, 4),
    cut_len=st.integers(0, 6),
    negative=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_cutter_matches_python_slice_oracle(prefix, suffix, start, extra, step, cut_len, negative):
    """expand_cutter vs a direct Python slice/splice oracle."""
    mid = "X" * cut_len
    addr = f"http://h.example/{prefix}{mid}{suffix}"
    cut_index = len(f"http://h.example/{prefix}") + 1  # 1-based at mid
    if negative:
        cut_index = cut_index - len(addr) - 1
    end = start + extra
    try:
        got = list(expand_cutter(addr, start, end, cut_index, cut_len, step=step))
    except PagerError:
        return  # validation rejected — fine
    ci = cut_index if cut_index > 0 else len(addr) + cut_index + 1
    left, right = addr[: ci - 1], addr[ci - 1 + cut_len :]
    expect = [(p, f"{left}{p * step}{right}") for p in range(start, end + 1)]
    assert got == expect


@given(keys=st.lists(st.integers(0, 2**63), min_size=1, max_size=300, unique=True))
@settings(max_examples=50, deadline=None)
def test_membership_no_false_negatives(keys):
    """Once inserted, a key is NEVER reported new again — all modes."""
    import numpy as np

    for impl in (_ExactSeen(), _BloomSeen(1000), _CuckooSeen(4096)):
        first = impl.check_and_add(np.array(keys, dtype=np.uint64))
        second = impl.check_and_add(np.array(keys, dtype=np.uint64))
        assert not second.any(), type(impl).__name__
        # exact mode also guarantees no false positives on first sight
        if isinstance(impl, _ExactSeen):
            assert first.all()


@given(s=st.text(max_size=50))
@settings(max_examples=100, deadline=None)
def test_hash64_stable(s):
    assert hash64(s) == hash64(s)
    assert 0 <= hash64(s) < 2**64


@given(
    data=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=50,
        max_size=2000,
    ),
    n_parts=st.integers(min_value=1, max_value=8),
    q=st.sampled_from([0.1, 0.5, 0.9]),
)
@settings(max_examples=50, deadline=None)
def test_kll_rank_bound_any_split(data, n_parts, q):
    """The KLL rank-error bound holds regardless of how the stream is
    split into sketches and in what order they merge."""
    import numpy as np

    from bbcrawl_ray.stages.sampling import KllSketch

    arr = np.asarray(data, dtype=np.float64)
    parts = np.array_split(arr, n_parts)
    sketches = []
    for p in parts:
        sk = KllSketch(200)
        sk.add(p)
        sketches.append(sk)
    # fold right-to-left (a different order than the driver reduce)
    merged = sketches[-1]
    for sk in reversed(sketches[:-1]):
        merged = sk.merge(merged)
    est = float(merged.quantiles([q])[0])
    s = np.sort(arr)
    lo = np.searchsorted(s, est, side="left") / len(s)
    hi = np.searchsorted(s, est, side="right") / len(s)
    # realized rank interval must overlap [q-eps, q+eps]; k=200 keeps
    # eps well under 0.05 at these sizes
    assert lo - 0.05 <= q <= hi + 0.05, (q, lo, hi, est)


@given(
    n=st.integers(min_value=1, max_value=64),
    d=st.sampled_from([1, 3, 8, 32]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_pack_unpack_any_shape(n, d, seed):
    """pack/unpack vectors round-trips exactly for any (n, d)."""
    import numpy as np
    import pyarrow as pa

    from bbcrawl_ray.stages.similarity import pack_vectors, unpack_vectors

    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)).astype(np.float32)
    t = pa.table({"vec_id": pa.array(range(n), pa.int64()), "embedding": list(X)})
    back = unpack_vectors(pack_vectors(t))
    Y = np.stack(back["embedding"].to_numpy(zero_copy_only=False))
    assert np.array_equal(X, Y)
