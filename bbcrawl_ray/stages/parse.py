"""HTML → interleaved span documents + download-manifest rows.

Stateless ``map_batches`` stage (pyarrow in/out): one fetched page row
in, one documents row (the ``input_hint`` span shape) plus N manifest
rows out. Regexes are module-level compiled constants, so stateless
tasks pay no per-batch setup.

Each page is parsed once into a flat pre-order document
(``functions/htmldom.py``): per-node ``tag``/``attrs``/``text`` lists
plus ``end``, where node ``i``'s subtree is the index range
``[i, end[i])``. Index order is document order because the builders
append every node under the innermost open element. One loop over
that range (``_page_pass``) appends the page's spans, and its
discovered links when asked, straight into the batch's column lists;
the manifests read the same document by range scans (an audio/video
element's sources are its descendants ``range(i + 1, end[i])``). The
src manifest reuses the URLs the span loop resolved, so each src is
resolved once.

Semantics parity (see SURVEY.md §2.3):
- src crawler        — reference libcrawl/crawler_src.go:36-86
- scrapeAV           — crawler_src.go:140-186
- vb-attachments     — reference libcrawl/crawlers.go:247-374
- file crawler       — crawlers.go:182-212
- per-page ``fileid`` (reset to 1, crawler_src.go:38) and per-post
  ``attid`` (increments on failures too, crawlers.go:268-308) are
  derived from DOM order within the row — no shared state.

The documents table carries the FULL interleaved representation
(text + every media kind, in DOM order); the manifest carries only
what the configured crawler would download.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from .. import schemas
from ..cli.partition import CrawlerSpec
from ..functions import naming
from ..functions.charsets import decode_body
from ..functions.htmldom import (
    NodeRef,
    attr_val,
    element_by_id,
    elements_by_attr_match,
    first_attr,
    match_attrs,
    parse_html,
)
from ..functions.urlfns import file_name_from_url, resolve_link

VB4_POST_ID = re.compile(r"^post_?[0-9]+$")
VB4_ATTACHMENT_ID = re.compile(r"^attachment[0-9]+$")
_DIGITS = re.compile(r"[0-9]+")

MEDIA_TAGS = frozenset(("img", "audio", "video", "source", "track"))


@dataclass
class ManifestRow:
    media_ref: str
    out_dir: str = ""
    out_name: str = ""
    post_id: str = ""
    att_ordinal: int = 0
    status: str = "pending"
    error: str = ""


def _page_pass(
    page_url: str,
    root: NodeRef,
    kinds: list[str],
    texts: list[str],
    refs: list[str],
    links: list[str] | None = None,
    resolved: dict[str, str] | None = None,
) -> int:
    """One pre-order scan of ``root``'s subtree: appends its spans to
    the column lists ``kinds``/``texts``/``refs`` and returns how many
    (FIXTURES.md §F3):

    - text nodes → kind=text (stripped, empty skipped)
    - any element with id ~ ^attachment[0-9]+$ and href → kind=attachment
    - other img/audio/video/source/track with src → media span

    With ``links`` it also appends the frontier-discovery links (no
    reference counterpart): hrefs of non-attachment anchors,
    absolutized, unresolvable ones dropped. With ``resolved`` it
    records each media src it resolved (src → absolute URL).
    """
    doc = root.doc
    tag_of, attrs_of, text_of = doc.tag, doc.attrs, doc.text
    n0 = len(kinds)
    for i in range(root.i, doc.end[root.i]):
        tag = tag_of[i]
        if tag is None:
            t = text_of[i].strip()
            if t:
                kinds.append("text")
                texts.append(t)
                refs.append("")
            continue
        attrs = attrs_of[i]
        if not attrs:
            continue
        node_id = first_attr(attrs, "id")
        if node_id and VB4_ATTACHMENT_ID.match(node_id):
            href = first_attr(attrs, "href")
            if href:
                ref = resolve_link(page_url, href)
                kinds.append("attachment")
                texts.append("")
                refs.append(ref)
        elif tag in MEDIA_TAGS:
            src = first_attr(attrs, "src")
            if src:
                ref = resolve_link(page_url, src)
                kinds.append(tag)
                texts.append("")
                refs.append(ref)
                if resolved is not None:
                    resolved[src] = ref
        elif tag == "a" and links is not None:
            href = first_attr(attrs, "href")
            if href:
                try:
                    links.append(resolve_link(page_url, href))
                except ValueError:
                    pass
    return len(kinds) - n0


def extract_spans(page_url: str, root: NodeRef) -> list[tuple[str, str, str]]:
    """Full interleaved span sequence of ``root``'s subtree in DOM
    pre-order, as ``(kind, text, media_ref)`` tuples."""
    kinds: list[str] = []
    texts: list[str] = []
    refs: list[str] = []
    _page_pass(page_url, root, kinds, texts, refs)
    return list(zip(kinds, texts, refs))


# ---------------------------------------------------------------------------
# src crawler manifest


def src_crawler_manifest(
    page_url: str,
    page_num: int,
    root: NodeRef,
    spec: CrawlerSpec,
    resolved: dict[str, str] | None = None,
) -> list[ManifestRow]:
    """Replicates SrcCrawler.Crawl + scrapeAV + uniqueName semantics.

    ``resolved`` (src → absolute URL, as ``_page_pass`` records it)
    saves re-resolving the srcs the span loop already resolved."""
    attrs_filter = [(k, v) for k, vals in spec.attrs.items() for v in vals]
    wanted = set(spec.tags) & {"audio", "img", "video"}
    memo = resolved or {}
    rows: list[ManifestRow] = []
    fileid = 1  # reset per page — crawler_src.go:38

    def resolve(link: str) -> tuple[str, str]:
        ref = memo.get(link)
        if ref is not None:
            return ref, ""
        try:
            return resolve_link(page_url, link), ""
        except ValueError as e:
            return link, str(e)

    doc = root.doc
    tag_of, attrs_of, end = doc.tag, doc.attrs, doc.end
    for i in range(root.i, end[root.i]):
        tag = tag_of[i]
        if tag not in wanted:
            continue
        attrs = attrs_of[i]
        if attrs_filter and not match_attrs(NodeRef(doc, i), attrs_filter):
            continue
        if tag == "img":
            link = first_attr(attrs, "src")
            if not link:
                continue
            try:
                name = naming.unique_name(page_num, fileid, link)
            except naming.NamingError as e:
                rows.append(ManifestRow(link, status="error", error=str(e)))
                continue
            fileid += 1  # consumed only on success — crawler_src.go:195-203
            ref, err = resolve(link)
            rows.append(
                ManifestRow(ref, out_name=name, status="error" if err else "pending", error=err)
            )
        else:  # audio / video → scrapeAV (crawler_src.go:140-186)
            downloads: list[str] = []
            own = first_attr(attrs, "src")
            if own:
                downloads.append(own)
            # the element's descendants are the index range after it
            for j in range(i + 1, end[i]):
                if tag_of[j] in ("source", "track"):
                    link = first_attr(attrs_of[j], "src")
                    if link:
                        downloads.append(link)
            if not downloads:
                continue
            if len(downloads) == 1:
                try:
                    name = naming.unique_name(page_num, fileid, downloads[0])
                except naming.NamingError as e:
                    rows.append(ManifestRow(downloads[0], status="error", error=str(e)))
                    continue
                fileid += 1
                ref, err = resolve(downloads[0])
                rows.append(
                    ManifestRow(
                        ref, out_name=name, status="error" if err else "pending", error=err
                    )
                )
            else:
                subdir = f"{page_num}-{fileid}"
                fileid += 1  # dir consumes the fileid — crawler_src.go:166-168
                names, name_errors = naming.av_tag_names(downloads)
                for bad_src, msg in name_errors:
                    rows.append(ManifestRow(bad_src, status="error", error=msg))
                for link, name in names.items():
                    ref, err = resolve(link)
                    rows.append(
                        ManifestRow(
                            ref,
                            out_dir=subdir,
                            out_name=name,
                            status="error" if err else "pending",
                            error=err,
                        )
                    )
    return rows


# ---------------------------------------------------------------------------
# vb-attachments crawler manifest


def vb_post_id(node: NodeRef) -> str:
    """First digit-run of the matching id attr (crawlers.go:334-342)."""
    for k, v in node.attrs:
        if k == "id" and VB4_POST_ID.match(v):
            m = _DIGITS.search(v)
            return m.group(0) if m else ""
    return ""


def vb_attachments_manifest(
    page_url: str, page_num: int, root: NodeRef, spec: CrawlerSpec
) -> list[ManifestRow]:
    """Replicates VBAttachmentCrawler.Crawl (crawlers.go:247-312)."""
    rows: list[ManifestRow] = []
    posts_container = element_by_id(root, "posts")
    posts = (
        elements_by_attr_match(posts_container, "id", VB4_POST_ID)
        if posts_container is not None
        else []
    )
    if not posts:
        # reference logs an error and continues (crawlers.go:263-265)
        rows.append(
            ManifestRow("", status="error", error=f'No posts found at page "{page_url}"')
        )
        return rows
    for post in posts:
        postid = vb_post_id(post)
        attid = 1
        for att in elements_by_attr_match(post, "id", VB4_ATTACHMENT_ID):
            href = attr_val(att, "href")
            if not href:
                # reference would nil-deref here; engine records an error row.
                # attid increments on failures too (crawlers.go:268-272,308)
                rows.append(
                    ManifestRow(
                        "",
                        post_id=postid,
                        att_ordinal=attid,
                        status="error",
                        error="attachment without href",
                    )
                )
                attid += 1
                continue
            try:
                ref = resolve_link(page_url, href)
            except ValueError as e:
                rows.append(
                    ManifestRow(
                        href, post_id=postid, att_ordinal=attid, status="error", error=str(e)
                    )
                )
                attid += 1
                continue
            if spec.names_from_header:
                # name resolved post-download from Content-Disposition with
                # prefix "{postid}-{attid}" (crawlers.go:295-298)
                rows.append(
                    ManifestRow(
                        ref,
                        post_id=postid,
                        att_ordinal=attid,
                        out_name="",
                        status="pending",
                    )
                )
            else:
                name = file_name_from_url(ref)
                if not name:
                    rows.append(
                        ManifestRow(
                            ref,
                            post_id=postid,
                            att_ordinal=attid,
                            status="error",
                            error="no basename in attachment URL",
                        )
                    )
                    attid += 1
                    continue
                rows.append(
                    ManifestRow(
                        ref,
                        post_id=postid,
                        att_ordinal=attid,
                        out_name=f"{postid}-{attid}-{name}",
                        status="pending",
                    )
                )
            attid += 1
    return rows


def file_crawler_manifest(url: str, page_num: int) -> list[ManifestRow]:
    """file crawler: the paged URL IS the download (crawlers.go:182-212)."""
    name = naming.file_crawler_name(page_num, url)
    return [ManifestRow(url, out_name=name, status="pending")]


# user-extension surface (reference crawler registry, api.go:27-31):
# extractor(page_url, page_num, dom_root, spec) -> list[ManifestRow]
EXTRACTORS = {
    "src": src_crawler_manifest,
    "vb-attachments": vb_attachments_manifest,
}


def register_extractor(name: str, fn) -> None:
    """Register a custom crawler's manifest extractor; referenced by the
    CrawlerSpec.crawler name in any CrawlConfig."""
    EXTRACTORS[name] = fn


# ---------------------------------------------------------------------------
# batch function


def _columns(rows: list[tuple], width: int) -> list[tuple]:
    """Row tuples → ``width`` column tuples."""
    return list(zip(*rows)) if rows else [()] * width


class ParsePages:
    """map_batches fn: PAGES rows → (documents_full ⊕ manifest) rows.

    Emits a two-part output keyed by ``record_kind`` so one pass over the
    body produces both tables; the pipeline splits them downstream with a
    cheap vectorized filter. Bodies are dropped here — the earliest
    point possible — to keep blocks small (SURVEY.md §4 memory row).
    """

    def __init__(
        self,
        spec: CrawlerSpec,
        strict_errors: bool = False,
        discover_links: bool = False,
        extractor=None,
    ):
        self.spec = spec
        self.strict_errors = strict_errors
        self.discover_links = discover_links
        # resolve the extractor HERE (usually on the driver) so custom
        # registry entries travel by value to worker processes — a
        # worker's module-level EXTRACTORS dict never sees driver-side
        # register_extractor() calls
        self.extractor = extractor if extractor is not None else EXTRACTORS.get(spec.crawler)
        # the built-in src extractor takes the span loop's resolved srcs
        self.shares_srcs = self.extractor is src_crawler_manifest

    def __call__(self, batch: pa.Table) -> pa.Table:
        # column-wise extraction: the headers map and any column the
        # parser never touches stay in Arrow (never converted to Python)
        urls = batch["url"].to_pylist()
        seed_ids = batch["seed_id"].to_pylist()
        page_nums = batch["page_num"].to_pylist()
        errors_in = batch["error"].to_pylist() if "error" in batch.column_names else [""] * len(urls)
        encodings = (
            batch["encoding"].to_pylist() if "encoding" in batch.column_names else ["utf-8"] * len(urls)
        )
        bodies = batch["body"].to_pylist() if "body" in batch.column_names else [b""] * len(urls)

        doc_rows: list[tuple] = []  # (doc_id, seed_id, page_num, url)
        # spans as flat arrays + per-doc lengths → ListArray.from_arrays
        span_kind: list[str] = []
        span_text: list[str] = []
        span_ref: list[str] = []
        span_off: list[int] = []
        span_lens: list[int] = []
        # (record_kind, doc_id, seed_id, page_num, url, media_ref, out_dir,
        #  out_name, post_id, att_ordinal, status, error)
        man_rows: list[tuple] = []
        excluded = set(self.spec.exclude)

        def add_manifest(head: tuple, m: ManifestRow) -> None:
            status = m.status
            if status == "pending" and m.media_ref in excluded:
                status = "excluded"
            man_rows.append(
                ("manifest", *head, m.media_ref, m.out_dir, m.out_name, m.post_id,
                 m.att_ordinal, status, m.error)
            )

        for url, seed_id, page_num, err, enc, body in zip(
            urls, seed_ids, page_nums, errors_in, encodings, bodies
        ):
            head = (f"{seed_id}/{page_num}", seed_id, page_num, url)
            if err:
                if self.strict_errors:
                    # reference aborts the whole run on page errors (api.go:104-113)
                    raise RuntimeError(f"page fetch failed: {url}: {err}")
                add_manifest(head, ManifestRow("", status="error", error=err))
                continue
            if self.spec.crawler == "file":
                doc_rows.append(head)
                span_lens.append(0)
                for m in file_crawler_manifest(url, page_num):
                    add_manifest(head, m)
                continue
            text, enc_err = decode_body(body, enc or "utf-8")
            if enc_err:
                # BodyUTF8 parity (encoding.go:10-16): an unsupported
                # charset is an error, never a silent utf-8 mangle
                if self.strict_errors:
                    raise RuntimeError(f"page decode failed: {url}: {enc_err}")
                add_manifest(head, ManifestRow("", status="error", error=enc_err))
                continue
            root = parse_html(text)
            links: list[str] | None = [] if self.discover_links else None
            resolved: dict[str, str] | None = {} if self.shares_srcs else None
            n = _page_pass(url, root, span_kind, span_text, span_ref, links, resolved)
            doc_rows.append(head)
            span_lens.append(n)
            span_off.extend(range(n))
            if links:
                for link in links:
                    man_rows.append(("link", *head, link, "", "", "", 0, "", ""))
            if self.shares_srcs:
                manifest = src_crawler_manifest(url, page_num, root, self.spec, resolved)
            elif self.extractor:
                manifest = self.extractor(url, page_num, root, self.spec)
            else:
                manifest = []
            for m in manifest:
                add_manifest(head, m)

        n_docs = len(doc_rows)
        doc_ids, doc_seeds, doc_pages, doc_urls = _columns(doc_rows, 4)
        offsets = np.zeros(n_docs + 1, dtype=np.int32)
        np.cumsum(span_lens, out=offsets[1:])
        span_struct = pa.StructArray.from_arrays(
            [
                pa.array(span_kind, pa.string()),
                pa.array(span_text, pa.string()),
                pa.array(span_ref, pa.string()),
                pa.array(span_off, pa.int32()),
            ],
            fields=list(schemas.SPAN),
        )
        spans_col = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), span_struct)
        docs_tbl = pa.table(
            {
                "record_kind": pa.array(["doc"] * n_docs, pa.string()),
                "doc_id": pa.array(doc_ids, pa.string()),
                "spans": spans_col,
                "seed_id": pa.array(doc_seeds, pa.string()),
                "page_num": pa.array(doc_pages, pa.int64()),
                "url": pa.array(doc_urls, pa.string()),
                "media_ref": pa.array([""] * n_docs, pa.string()),
                "out_dir": pa.array([""] * n_docs, pa.string()),
                "out_name": pa.array([""] * n_docs, pa.string()),
                "post_id": pa.array([""] * n_docs, pa.string()),
                "att_ordinal": pa.array([0] * n_docs, pa.int32()),
                "status": pa.array([""] * n_docs, pa.string()),
                "error": pa.array([""] * n_docs, pa.string()),
                "bytes": pa.array([0] * n_docs, pa.int64()),
                "header_filename": pa.array([""] * n_docs, pa.string()),
            }
        )
        n_man = len(man_rows)
        (kinds, m_doc, m_seed, m_page, m_url, m_ref, m_dir, m_name, m_post, m_att,
         m_status, m_error) = _columns(man_rows, 12)
        empty_spans = pa.ListArray.from_arrays(
            pa.array(np.zeros(n_man + 1, dtype=np.int32), pa.int32()),
            span_struct.slice(0, 0),
        )
        man_tbl = pa.table(
            {
                "record_kind": pa.array(kinds, pa.string()),
                "doc_id": pa.array(m_doc, pa.string()),
                "spans": empty_spans,
                "seed_id": pa.array(m_seed, pa.string()),
                "page_num": pa.array(m_page, pa.int64()),
                "url": pa.array(m_url, pa.string()),
                "media_ref": pa.array(m_ref, pa.string()),
                "out_dir": pa.array(m_dir, pa.string()),
                "out_name": pa.array(m_name, pa.string()),
                "post_id": pa.array(m_post, pa.string()),
                "att_ordinal": pa.array(m_att, pa.int32()),
                "status": pa.array(m_status, pa.string()),
                "error": pa.array(m_error, pa.string()),
                "bytes": pa.array([0] * n_man, pa.int64()),
                "header_filename": pa.array([""] * n_man, pa.string()),
            }
        )
        return pa.concat_tables([docs_tbl, man_tbl])
