"""Flat pre-order HTML document + index-range queries (document order).

A page parses into one :class:`Document`: four parallel per-node lists
``tag``, ``attrs``, ``text`` and ``end``, with node 0 the synthetic
``#document`` root. There is no object per node and no child list.

Creation order is pre-order. Both builders keep a stack of the open
elements and append every new node under its top. The top is always
the last open element on the rightmost path of the tree built so far,
so a new node is the next node a pre-order DFS would visit. Closing
an element fixes its ``end``: the subtree of node ``i`` is exactly
the nodes ``[i, end[i])``, and "walk the subtree" is a range scan.

Re-expresses the reference's libhtml walkers (libhtml/libhtml.go):
its ``walkTree`` pre-hook order (libhtml.go:13-26) is this index
order, so extraction order equals DOM document order. The queries
take and return :class:`NodeRef` handles, which extractors written
against the reference's node API (``tag``, ``attrs``, ``text``) use
unchanged. The hot path (``stages/parse.py``) reads the lists
directly.
"""

from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser
from typing import Iterator

VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

_NO_ATTRS: tuple = ()  # text nodes and the root


class Document:
    """One parsed page as a flat pre-order node table.

    Node ``i``: ``tag[i]`` (None for a text node), ``attrs[i]`` (the
    ``(name, value)`` pairs in source order), ``text[i]`` (text nodes
    only, "" for elements) and ``end[i]`` (one past its last
    descendant).
    """

    __slots__ = ("tag", "attrs", "text", "end")

    def __init__(self):
        self.tag: list[str | None] = ["#document"]
        self.attrs: list = [_NO_ATTRS]
        self.text: list[str] = [""]
        self.end: list[int] = [1]

    def close(self, open_nodes: list[int]) -> None:
        """Fix ``end`` of the still-open nodes at the end of the input."""
        n = len(self.tag)
        for j in open_nodes:
            self.end[j] = n


class NodeRef:
    """Handle on node ``i`` of a :class:`Document`."""

    __slots__ = ("doc", "i")

    def __init__(self, doc: Document, i: int):
        self.doc = doc
        self.i = i

    @property
    def tag(self) -> str | None:
        return self.doc.tag[self.i]

    @property
    def attrs(self):
        return self.doc.attrs[self.i]

    @property
    def text(self) -> str:
        return self.doc.text[self.i]

    def __repr__(self) -> str:  # pragma: no cover
        return f"NodeRef({self.i}, {self.tag!r})"


def _close_to(doc: Document, open_nodes: list[int], tag: str) -> None:
    """End tag: pop the innermost open ``tag`` and everything above it
    (nothing when no such element is open)."""
    tags = doc.tag
    for k in range(len(open_nodes) - 1, 0, -1):
        if tags[open_nodes[k]] == tag:
            n = len(tags)
            end = doc.end
            for j in open_nodes[k:]:
                end[j] = n
            del open_nodes[k:]
            return


class _DocBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.doc = Document()
        self.open = [0]

    def _element(self, tag, attrs):
        doc = self.doc
        i = len(doc.tag)
        doc.tag.append(tag)
        doc.attrs.append([(k, v if v is not None else "") for k, v in attrs])
        doc.text.append("")
        doc.end.append(i + 1)
        return i

    def handle_starttag(self, tag, attrs):
        i = self._element(tag, attrs)
        if tag not in VOID_ELEMENTS:
            self.open.append(i)

    def handle_startendtag(self, tag, attrs):
        self._element(tag, attrs)

    def handle_endtag(self, tag):
        _close_to(self.doc, self.open, tag)

    def handle_data(self, data):
        if data:
            doc = self.doc
            doc.end.append(len(doc.tag) + 1)
            doc.tag.append(None)
            doc.attrs.append(_NO_ATTRS)
            doc.text.append(data)


def parse_html_stdlib(text: str) -> NodeRef:
    """Parse HTML via stdlib ``html.parser`` (reference implementation)."""
    b = _DocBuilder()
    b.feed(text)
    b.close()
    b.doc.close(b.open)
    return NodeRef(b.doc, 0)


# Fast path: a regex tokenizer building the SAME document with the same
# stack rules as _DocBuilder — html.parser spends most of a page's parse
# time in its per-character state machine. Differential-tested against
# parse_html_stdlib over the synthetic corpus, the golden fixtures and
# fuzzed markup (tests/test_fast_parser*.py); falls back automatically
# for inputs with constructs the tokenizer does not model.
#
# One token per match and no gaps: findall returns every token of the
# page as a tuple of groups ("" where a group did not take part), so
# the builder loop touches no match objects. Groups: text run, end-tag
# name, declaration, start-tag name, its attribute section, its '/',
# and a '<' that starts no tag (stray; the stdlib recovers from these
# differently). Comments and processing instructions capture nothing.
_TOKEN_RE = re.compile(
    r"([^<]+)"
    r"|<(?:"
    r"/\s*([a-zA-Z][^\s>/\x00]*)\s*"
    r"|!--.*?--\s*"  # html.parser accepts '--  >' comment ends
    r"|(![^>]*)"
    r"|\?[^>]*"
    r"|([a-zA-Z][^\t\n\r\f />\x00]*)"  # html.parser's tag-name class
    r"((?:[^>\"']|\"[^\"]*\"|'[^']*')*?)(/?)"
    r")>"
    r"|(<)",
    re.S,
)
# an attribute section both tokenizers read alike: whitespace before
# each attribute, and name, name=value, name="value" or name='value',
# where a name is any run without whitespace/quote/'>'/'/'/'=' (so
# 'o:p', '1', 'data-x.y' all work). html.parser reads anything else its
# own way (a quote in a name, '==' before a value, '/' between
# attributes), so those pages fall back; on a plain section findall of
# _ATTR_RE yields exactly its attributes
_ATTR_RE = re.compile(
    r"([^\s\"'>/=][^\s\"'>/=]*)"
    r"(?:\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s\"'>]*)))?"
)
_PLAIN_ATTRS = re.compile(
    r"(?:\s+[^\s\"'>/=][^\s\"'>/=]*"
    r"(?:\s*=\s*(?:\"[^\"]*\"|'[^']*'|[^\s\"'>=][^\s\"'>]*))?)*\s*"
)
# stdlib folds a trailing '/' into an in-progress UNQUOTED value
# ('<img src=a.jpg/>' → value "a.jpg/", NOT self-closing)
_TRAILING_UNQUOTED = re.compile(r"[^\s\"'>/=][^\s\"'>/=]*=[^\s\"']*$")
_NEEDS_FALLBACK = re.compile(r"<(script|style)\b", re.I)  # html.parser CDATA_CONTENT_ELEMENTS


def parse_html_fast(text: str) -> NodeRef:
    """Regex-tokenizer document build (same semantics as the stdlib path).

    CDATA-mode elements (script/style — html.parser's
    CDATA_CONTENT_ELEMENTS) change tokenizer
    state in real HTML — inputs containing them fall back to stdlib.
    """
    if _NEEDS_FALLBACK.search(text):
        return parse_html_stdlib(text)
    doc = Document()
    tags, attrs_of, texts, end = doc.tag, doc.attrs, doc.text, doc.end
    open_nodes = [0]
    for data, ctag, decl, tag, raw_attrs, selfclose, stray in _TOKEN_RE.findall(text):
        if data:
            end.append(len(tags) + 1)
            tags.append(None)
            attrs_of.append(_NO_ATTRS)
            texts.append(unescape(data) if "&" in data else data)
            continue
        if not tag:
            if ctag:
                ctag = ctag.lower()
                if len(open_nodes) > 1 and tags[open_nodes[-1]] == ctag:
                    end[open_nodes.pop()] = len(tags)  # the innermost element: the common case
                else:
                    _close_to(doc, open_nodes, ctag)
            elif stray or decl[1:].startswith(("--", "[")):
                # stray '<' in text, malformed comment ('--!>'-style ends)
                # or marked section (<![CDATA[..]]> scans past '>'):
                # html.parser's recovery tokenization differs — defer to
                # it rather than approximate
                return parse_html_stdlib(text)
            continue  # comments, PIs, DOCTYPE and friends are dropped, like the stdlib path
        if "<" in raw_attrs:
            # a '<' inside a (quoted) attr section: html.parser's
            # tokenizer re-splits on '<' — defer to it
            return parse_html_stdlib(text)
        tag = tag.lower()
        if selfclose and _TRAILING_UNQUOTED.search(raw_attrs):
            # '<img src=a.jpg/>': the '/' belongs to the unquoted value
            raw_attrs += "/"
            selfclose = ""
        attrs = []
        if raw_attrs:
            if not _PLAIN_ATTRS.fullmatch(raw_attrs):
                return parse_html_stdlib(text)
            for k, v1, v2, v3 in _ATTR_RE.findall(raw_attrs):
                # findall reports an unmatched group as "": a bare attribute
                # (no '=') and an empty value both give "", like html.parser
                val = v1 or v2 or v3
                attrs.append((k.lower(), unescape(val) if "&" in val else val))
        i = len(tags)
        tags.append(tag)
        attrs_of.append(attrs)
        texts.append("")
        end.append(i + 1)
        if tag not in VOID_ELEMENTS and not selfclose:
            open_nodes.append(i)
    doc.close(open_nodes)
    return NodeRef(doc, 0)


def parse_html(text: str) -> NodeRef:
    """Parse HTML; returns the synthetic ``#document`` root (node 0)."""
    return parse_html_fast(text)


def walk(node: NodeRef) -> Iterator[NodeRef]:
    """``node`` and its descendants in pre-order (reference walkTree
    pre-hook order, libhtml.go:13-26): the index range [i, end[i])."""
    doc = node.doc
    return (NodeRef(doc, j) for j in range(node.i, doc.end[node.i]))


def first_attr(attrs, key: str) -> str:
    """First value of ``key`` in one node's attrs list ("" when absent)."""
    for k, v in attrs:
        if k == key:
            return v
    return ""


def attr_val(node: NodeRef, key: str) -> str:
    """First value of attribute ``key`` ("" when absent) — libhtml.go:46-53."""
    return first_attr(node.doc.attrs[node.i], key)


def element_by_id(root: NodeRef, id_: str) -> NodeRef | None:
    """First node (document order) with id == id_ — libhtml.go:55-68."""
    doc = root.doc
    want = ("id", id_)
    for j in range(root.i, doc.end[root.i]):
        if want in doc.attrs[j]:
            return NodeRef(doc, j)
    return None


def elements_by_attr_match(root: NodeRef, key: str, pattern: re.Pattern) -> list[NodeRef]:
    """All nodes where attr ``key``'s value matches regex — libhtml.go:70-74."""
    doc = root.doc
    attrs_of = doc.attrs
    out = []
    for j in range(root.i, doc.end[root.i]):
        for k, v in attrs_of[j]:
            if k == key and pattern.search(v):
                out.append(NodeRef(doc, j))
                break
    return out


def elements_by_tag(root: NodeRef, *tags: str) -> list[NodeRef]:
    """All nodes with one of the given tags, document order — libhtml.go:76-89."""
    doc = root.doc
    tag_of = doc.tag
    tagset = set(tags)
    return [NodeRef(doc, j) for j in range(root.i, doc.end[root.i]) if tag_of[j] in tagset]


def elements_by_tag_and_attrs(
    root: NodeRef, tag: str, attrs: list[tuple[str, str]]
) -> list[NodeRef]:
    """All ``tag`` elements carrying ALL given attrs exactly —
    libhtml.go:91-113 (utility surface, unused by the reference crawlers)."""
    return [n for n in elements_by_tag(root, tag) if match_attrs(n, attrs)]


def match_attrs(node: NodeRef, attrs: list[tuple[str, str]]) -> bool:
    """Node must carry ALL given (key, value) attrs exactly; an empty
    requirement set always matches — libhtml.go:124-142."""
    node_attrs = set(node.attrs)
    return all((k, v) in node_attrs for k, v in attrs)
