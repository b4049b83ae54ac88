"""Deterministic output-file naming, replicating the reference's schemes.

Naming schemes (FIXTURES.md §F4):
- file crawler:      "{page} - {basename}"        — crawlers.go:191-212
- src crawler:       "{page}-{fileid}.{ext}"      — crawler_src.go:189-204
- src multi-source:  "{page}-{fileid}/" subdir    — crawler_src.go:167
- vb-attachments:    "{postid}-{attid}-{basename}"— crawlers.go:295-304
- header rename:     "{prefix}-{header filename}" — afterdownload.go:27-46
- auto name:         "{id}.download"              — downloader.go:262

Deliberate divergence (documented): the reference's avTag filename-
collision fallback is a 64-char RANDOM name (avtag.go:40-52,
``rand.Int31n`` — untestable); we derive the same-shaped name
deterministically from sha256(src). The reference's double-extension
quirk (``name + '.' + path.Ext`` where Ext already includes the dot,
producing "xxxx..jpg") is replicated bug-compatibly.
"""

from __future__ import annotations

import hashlib
import posixpath

from .urlfns import file_name_from_url, url_path


class NamingError(ValueError):
    """A filename could not be derived (reference logs + skips, or panics)."""


def unique_name(page_num: int, fileid: int, link: str) -> str:
    """src-crawler name "{page}-{fileid}.{ext}" (crawler_src.go:189-204).

    Bug-compat: the extension is everything after the LAST '.' of the
    URL path; when the path has NO dot, Go's ``LastIndex`` returns -1
    and the "extension" becomes the ENTIRE path (which then trips the
    '/'-in-filename panic in the reference — here it raises).
    """
    path = url_path(link)
    li = path.rfind(".")
    if li + 1 < len(path):
        suffix = path[li + 1 :]
    else:
        raise NamingError(f'No suffix available in url path "{path}"')
    name = f"{page_num}-{fileid}.{suffix}"
    check_filename(name)
    return name


def check_filename(name: str) -> str:
    """downloader.go:85-95: non-empty, no path separator."""
    if not name:
        raise NamingError("Filename cannot be empty")
    if "/" in name:
        raise NamingError(
            f'Filename "{name}" is not allowed to contain the directory separator "/"'
        )
    return name


def file_crawler_name(page_num: int, url: str) -> str:
    """file-crawler name "{page} - {basename}"; "" when no basename
    (the download then auto-names, crawlers.go:191-203)."""
    name = file_name_from_url(url)
    if name:
        return f"{page_num} - {name}"
    return ""


def auto_name(ordinal: int) -> str:
    """Unnamed-download fallback "{id}.download" (downloader.go:262).

    The reference id is a global mutex counter (downloadcounter.go:8-23);
    the engine derives ``ordinal`` from data (page_num × span offset) so
    no global actor serializes the pipeline."""
    return f"{ordinal}.download"


_COLLISION_ALPHABET = "abcdefghijklmnopqrstuvwxy"  # rand.Int31n(25)+0x61 → 'a'..'y'


def collision_name(name: str, src: str) -> str:
    """Deterministic stand-in for avTag.randomName (avtag.go:40-52):
    64 chars from the same 25-letter alphabet, derived from sha256(src);
    keeps the reference's double-dot extension quirk."""
    ext = posixpath.splitext(name)[1]  # includes the leading '.', like path.Ext
    digest = hashlib.sha256(src.encode("utf-8")).digest()
    stream = hashlib.sha256(digest + b"x").digest() + digest
    while len(stream) < 64:
        stream += hashlib.sha256(stream).digest()
    body = "".join(_COLLISION_ALPHABET[b % 25] for b in stream[:64])
    if ext:
        return f"{body}.{ext}"
    return body


def av_tag_names(srcs: list[str]) -> tuple[dict[str, str], list[tuple[str, str]]]:
    """Per-tag src→filename map with dedup (avtag.go:14-37).

    Identical (src, name) re-offers are ignored; a filename collision
    from a DIFFERENT src gets a deterministic collision name. A src with
    no derivable basename yields an ERROR entry and the remaining
    sources still get names (the reference logs per-link and continues,
    crawler_src.go:170-174). Unlike the reference's random map
    iteration, insertion order is preserved."""
    out: dict[str, str] = {}
    errors: list[tuple[str, str]] = []
    for src in srcs:
        path = url_path(src)
        name = file_name_from_url(src)
        if not name:
            errors.append(
                (src, f'Could not derive a filename from input path "{path}"')
            )
            continue
        for k, v in out.items():
            if v == name:
                if k == src:
                    name = None  # identical entry exists
                else:
                    name = collision_name(name, src)
                break
        if name is not None:
            out[src] = name
    return out, errors


def header_filename(content_disposition_values: list[str]) -> str:
    """Parse filename="..." from Content-Disposition values
    (downloader.go:121-143,319-340). Raises when absent/malformed."""
    filename = ""
    for v in content_disposition_values:
        for field in v.split(";"):
            trimmed = field.strip()
            if trimmed.startswith('filename="'):
                splitted = trimmed.split("=")
                if len(splitted) != 2 or splitted[0] != "filename":
                    filename = ""
                else:
                    filename = splitted[1].strip('"')
                    if "/" in filename:
                        filename = ""
                if not filename:
                    raise NamingError(
                        f"malformed filename in Content-disposition header: {field}"
                    )
                return filename
    raise NamingError("No Content-disposition header field found")
