"""URL scalar functions with reference-parity semantics.

Replicates the behavior of the reference helpers:
- ``smallest_substr_right``  — /root/reference/libcrawl/util_string.go:10-16
- ``file_name_from_url``     — /root/reference/libcrawl/util_url.go:13-19
- ``base_url_only``          — /root/reference/libcrawl/util_url.go:23-28
- ``rel2abs``                — /root/reference/libcrawl/util_url.go:30-49
  (deliberately NON-RFC-3986: drops the page's path context, so
  ``foo.jpg`` on ``/a/b/page`` resolves to ``host/foo.jpg``; also drops
  any port because the reference uses ``url.Hostname()``. Replicated
  exactly for parity; ``strict_rfc3986=True`` switches to
  ``urllib.parse.urljoin``.)
- ``url_for_pager``          — /root/reference/libcrawl/util_url.go:52-64

Engine additions (north-rule frontier machinery, no reference
counterpart): ``canonicalize_url``, ``hash64`` / ``hash64_batch``.
"""

from __future__ import annotations

import hashlib
import re
from functools import lru_cache
from urllib.parse import parse_qsl, quote, urlencode, urljoin, urlsplit, urlunsplit

_SCHEME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.\-]*:")


class UrlError(ValueError):
    """Raised when a URL fails the reference's validation rules."""


def smallest_substr_right(s: str, delimiter: str) -> str:
    """Substring after the last occurrence of ``delimiter`` ("" if none left)."""
    li = s.rfind(delimiter)
    if li + 1 < len(s):
        return s[li + 1 :]
    return ""


def url_path(url: str) -> str:
    """``urlsplit(url).path``.

    The media srcs of a crawled page are nearly all a plain absolute
    path (``/a/b.jpg``) or ``http(s)://host/a/b.jpg``; with no query,
    fragment, tab/CR/LF or IPv6 bracket (and an ASCII host) their path
    is a slice, so those skip the split. Anything else takes it."""
    if not ("?" in url or "#" in url or "\t" in url or "\n" in url or "\r" in url):
        if url[:1] == "/" and url[1:2] != "/":
            return url
        for prefix in ("http://", "https://"):
            if url.startswith(prefix) and url.isascii() and "[" not in url and "]" not in url:
                cut = url.find("/", len(prefix))
                return url[cut:] if cut >= 0 else ""
    return urlsplit(url).path


def file_name_from_url(url: str) -> str:
    """Basename of the URL path (after the last '/'); "" when empty."""
    return smallest_substr_right(url_path(url), "/")


def is_abs(url: str) -> bool:
    """True when the URL has a scheme (Go ``url.IsAbs`` semantics)."""
    return _SCHEME_RE.match(url) is not None


def base_url_only(url: str) -> str:
    """scheme://hostname — no port, path, or query (cookie scope URL)."""
    s = urlsplit(url)
    if not s.hostname:
        raise UrlError("relative URLs are not supported")
    return f"{s.scheme}://{s.hostname}"


def _request_uri(link: str) -> str:
    """Go ``url.URL.RequestURI()`` for a parsed link: path (or "/") + ?query."""
    # fast path for the dominant case — a scheme-less plain path (with
    # optional non-empty query): path?query IS the request-URI verbatim,
    # no parse needed. The full split handles everything urlsplit
    # normalizes: protocol-relative links (//host — netloc dropped),
    # fragments (#f — stripped), a trailing empty query ('a?' → 'a'),
    # embedded tab/CR/LF (removed anywhere), and leading/trailing C0
    # control or space (stripped). Callers guarantee no scheme
    # (is_abs checked).
    if (
        "#" not in link
        and "\t" not in link
        and "\n" not in link
        and "\r" not in link
        and not link.startswith(("//", "?"))
        and not link.endswith("?")
        and (not link or (link[0] > " " and link[-1] > " "))
    ):
        return link or "/"
    s = urlsplit(link)
    requri = s.path or "/"
    if s.query:
        requri += "?" + s.query
    return requri


# page URLs repeat for every link on the page, so the base is parsed
# once per page; the cache holds strings only (bounded, immutable)
@lru_cache(maxsize=8192)
def _page_base(page_url: str) -> str:
    """``scheme://hostname`` of a page URL: rel2abs's base."""
    d = urlsplit(page_url)
    if not d.scheme:
        raise UrlError("page_url must be absolute")
    return f"{d.scheme}://{d.hostname or ''}"


def rel2abs(page_url: str, link: str) -> str:
    """Reference-parity relative→absolute resolution (NOT RFC 3986).

    Rebuilds from the page's scheme + hostname + the link's request-URI,
    discarding the page's path context and port.
    """
    base = _page_base(page_url)
    if is_abs(link):
        raise UrlError("link is already absolute")
    requri = _request_uri(link)
    if requri.startswith("/"):
        return base + requri
    return f"{base}/{requri}"


def resolve_link(page_url: str, link: str, strict_rfc3986: bool = False) -> str:
    """Absolutize ``link`` against ``page_url`` (identity when already absolute)."""
    if is_abs(link):
        return link
    if strict_rfc3986:
        return urljoin(page_url, link)
    return rel2abs(page_url, link)


def url_for_pager(addr: str) -> str:
    """Validate a pager blueprint URL: absolute + http/https scheme."""
    s = urlsplit(addr)
    if not s.scheme:
        raise UrlError(f"{addr!r} is not an absolute URL")
    if s.scheme not in ("http", "https"):
        raise UrlError(f"{addr!r} is an unsupported url scheme")
    return addr


def host_of(url: str) -> str:
    """Lowercased hostname (no port); "" when unparseable."""
    try:
        return (urlsplit(url).hostname or "").lower()
    except ValueError:
        return ""


def hosts_of_batch(urls) -> "pyarrow.Array":  # noqa: F821
    """Vectorized ``host_of`` over an Arrow string array.

    The Arrow regex handles the plain ``scheme://host/...`` shape (the
    overwhelming majority of discovered links) entirely in C++; rows
    whose authority carries ports, userinfo or brackets — or that do
    not parse at all — fall back to the exact scalar parser, so the
    result matches ``host_of`` element-for-element.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    ex = pc.extract_regex(urls, pattern=r"^[A-Za-z][A-Za-z0-9+.\-]*://(?P<auth>[^/?#]+)")
    auth = pc.struct_field(ex, "auth")
    simple = pc.fill_null(
        pc.match_substring_regex(auth, r"^[A-Za-z0-9.\-_]+$"), False
    )
    fast = pc.utf8_lower(pc.fill_null(auth, ""))
    if pc.all(simple).as_py() is True:
        return fast
    # scalar fallback only for the odd rows
    idx = np.nonzero(np.invert(simple.to_numpy(zero_copy_only=False)))[0]
    slow_vals = [host_of(urls[int(i)].as_py() or "") for i in idx]
    out = fast.to_pylist()
    for i, v in zip(idx, slow_vals):
        out[int(i)] = v
    return pa.array(out, pa.string())


_DEFAULT_PORTS = {("http", 80), ("https", 443)}


def canonicalize_url(url: str) -> str:
    """Engine canonical form used for the URL-seen set and url_hash.

    Lowercase scheme+host, strip default ports, drop the fragment, sort
    query pairs by key (matching the reference QueryPager's
    ``url.Values.Encode()`` key-sorting, pagers.go:42-45), default path "/".
    """
    s = urlsplit(url.strip())
    scheme = s.scheme.lower()
    host = (s.hostname or "").lower()
    try:
        port = s.port
    except ValueError:
        port = None
    netloc = host if port is None or (scheme, port) in _DEFAULT_PORTS else f"{host}:{port}"
    path = s.path or "/"
    pairs = parse_qsl(s.query, keep_blank_values=True)
    query = urlencode(sorted(pairs), quote_via=quote)
    return urlunsplit((scheme, netloc, path, query, ""))


def hash64(s: str) -> int:
    """Deterministic 64-bit hash of a string (stable across runs/processes)."""
    return int.from_bytes(hashlib.sha1(s.encode("utf-8")).digest()[:8], "little")


def hash64_batch(strings) -> "numpy.ndarray":  # noqa: F821
    """Batch 64-bit hashing for Arrow/numpy string arrays.

    Always the sha1-based ``hash64``: url_hash is PERSISTED in frontier
    checkpoints and reused on resume to rebuild the URL-seen shards, so
    the hash must be stable across processes, library versions and
    environments. (polars' xxhash64 is ~7× faster but documented as
    unstable across versions — ~1 µs/url is noise next to a fetch, and
    a resume with mismatched hashes silently loses the whole seen-set
    in bloom/cuckoo modes.)
    """
    import numpy as np

    return np.fromiter(
        (hash64(s) for s in strings), dtype=np.uint64, count=len(strings)
    )


def hash64_batch_fast(strings) -> "numpy.ndarray":  # noqa: F821
    """Vectorized 64-bit hashing for WITHIN-RUN use only.

    polars' xxhash64 when available (~7× faster than the sha1 path) —
    its values are NOT stable across polars versions, so this must
    never feed anything persisted (frontier url_hash uses the stable
    ``hash64_batch``). Right for in-run sketches (HLL) where only
    per-run self-consistency matters.
    """
    import numpy as np

    try:
        import polars as pl

        return pl.Series(strings).hash(seed=0).to_numpy().astype(np.uint64)
    except Exception:
        return hash64_batch(strings)
