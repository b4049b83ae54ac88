"""Minimal DOM + tree-query micro-library (document-order semantics).

Re-expresses the reference's libhtml walkers
(/root/reference/libhtml/libhtml.go) on top of Python's stdlib
``html.parser`` — no third-party HTML libs in this sandbox. All
queries traverse in pre-order DFS, matching the reference's
``walkTree`` (libhtml.go:13-26), so extraction order equals DOM
document order.
"""

from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser
from typing import Iterator

VOID_ELEMENTS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)


class Node:
    """One DOM node. ``tag is None`` marks a text node."""

    __slots__ = ("tag", "attrs", "children", "text")

    def __init__(self, tag: str | None, attrs: list[tuple[str, str]] | None = None, text: str = ""):
        self.tag = tag
        self.attrs = attrs or []
        self.children: list[Node] = []
        self.text = text

    def __repr__(self) -> str:  # pragma: no cover
        if self.tag is None:
            return f"Text({self.text!r})"
        return f"<{self.tag} {self.attrs}>({len(self.children)})"


class _DomBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = Node("#document")
        self.stack = [self.root]

    def handle_starttag(self, tag, attrs):
        node = Node(tag, [(k, v if v is not None else "") for k, v in attrs])
        self.stack[-1].children.append(node)
        if tag not in VOID_ELEMENTS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        node = Node(tag, [(k, v if v is not None else "") for k, v in attrs])
        self.stack[-1].children.append(node)

    def handle_endtag(self, tag):
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                break

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(Node(None, text=data))


def parse_html_stdlib(text: str) -> Node:
    """Parse HTML via stdlib ``html.parser`` (reference implementation)."""
    b = _DomBuilder()
    b.feed(text)
    b.close()
    return b.root


# Fast path: a regex tokenizer building the SAME tree with the same
# stack rules as _DomBuilder — html.parser spends ~60% of the parse
# stage's time in its per-character state machine. Differential-tested
# against parse_html_stdlib over the synthetic corpus and the golden
# fixtures (tests/test_fast_parser.py); falls back automatically for
# inputs with constructs the tokenizer does not model.
_TAG_RE = re.compile(
    r"<(?:"
    r"(?P<close>/\s*(?P<ctag>[a-zA-Z][^\s>/]*)\s*)"
    r"|(?P<comment>!--.*?--\s*)"  # html.parser accepts '--  >' comment ends
    r"|(?P<decl>![^>]*)"
    r"|(?P<pi>\?[^>]*)"
    r"|(?P<tag>[a-zA-Z][^\s/>]*)(?P<attrs>(?:[^>\"']|\"[^\"]*\"|'[^']*')*?)(?P<selfclose>/?)"
    r")>",
    re.S,
)
# attr names per html.parser's tolerant rules: any run without
# whitespace/quote/'>'/'/'/'=' (so 'o:p', '1', 'data-x.y' all work)
_ATTR_RE = re.compile(
    r"([^\s\"'>/][^\s\"'>/=]*)"  # first char may be '=' (stdlib-tolerant)
    r"(?:\s*=\s*(?:\"([^\"]*)\"|'([^']*)'|([^\s\"'>]*)))?"
)
# stdlib folds a trailing '/' into an in-progress UNQUOTED value
# ('<img src=a.jpg/>' → value "a.jpg/", NOT self-closing)
_TRAILING_UNQUOTED = re.compile(r"[^\s\"'>/=][^\s\"'>/=]*=[^\s\"']*$")
_NEEDS_FALLBACK = re.compile(r"<(script|style)\b", re.I)  # html.parser CDATA_CONTENT_ELEMENTS


def parse_html_fast(text: str) -> Node:
    """Regex-tokenizer DOM build (same tree semantics as the stdlib path).

    CDATA-mode elements (script/style — html.parser's
    CDATA_CONTENT_ELEMENTS) change tokenizer
    state in real HTML — inputs containing them fall back to stdlib.
    """
    if _NEEDS_FALLBACK.search(text):
        return parse_html_stdlib(text)
    root = Node("#document")
    stack = [root]
    pos = 0
    for m in _TAG_RE.finditer(text):
        if m.start() > pos:
            data = text[pos : m.start()]
            if "<" in data:
                # stray '<' in text: html.parser's recovery tokenization
                # differs — defer to it rather than approximate
                return parse_html_stdlib(text)
            if data:
                stack[-1].children.append(Node(None, text=unescape(data)))
        pos = m.end()
        if m.group("comment") or m.group("pi"):
            continue
        decl = m.group("decl")
        if decl:
            body = decl[1:]  # after '!'
            if body.startswith("--") or body.startswith("["):
                # malformed comment ('--!>'-style ends) or marked section
                # (<![CDATA[..]]> scans past '>') — stdlib tokenizes these
                # differently; defer to it
                return parse_html_stdlib(text)
            continue  # DOCTYPE and friends are dropped, like the stdlib path
        if m.group("close"):
            tag = m.group("ctag").lower()
            for i in range(len(stack) - 1, 0, -1):
                if stack[i].tag == tag:
                    del stack[i:]
                    break
            continue
        tag = m.group("tag").lower()
        raw_attrs = m.group("attrs") or ""
        if "<" in raw_attrs:
            # a '<' inside a (quoted) attr section: html.parser's
            # tokenizer re-splits on '<' — defer to it
            return parse_html_stdlib(text)
        selfclose = m.group("selfclose")
        if selfclose and _TRAILING_UNQUOTED.search(raw_attrs):
            # '<img src=a.jpg/>': the '/' belongs to the unquoted value
            raw_attrs += "/"
            selfclose = ""
        attrs = []
        for am in _ATTR_RE.finditer(raw_attrs):
            k, v1, v2, v3 = am.group(1), am.group(2), am.group(3), am.group(4)
            val = v1 if v1 is not None else v2 if v2 is not None else v3
            # bare attribute (no '=') → "" like html.parser's None→"" mapping
            attrs.append((k.lower(), unescape(val) if val else ""))
        node = Node(tag, attrs)
        stack[-1].children.append(node)
        if tag not in VOID_ELEMENTS and not selfclose:
            stack.append(node)
    if pos < len(text):
        tail = text[pos:]
        if "<" in tail:
            return parse_html_stdlib(text)
        if tail:
            stack[-1].children.append(Node(None, text=unescape(tail)))
    return root


def parse_html(text: str) -> Node:
    """Parse HTML into a DOM tree rooted at a synthetic ``#document`` node."""
    return parse_html_fast(text)


def walk(node: Node) -> Iterator[Node]:
    """Pre-order DFS (reference walkTree pre-hook order, libhtml.go:13-26).

    Iterative (explicit stack): the recursive generator version spends
    most of its time resuming nested generator frames on deep trees."""
    stack = [node]
    pop = stack.pop
    while stack:
        n = pop()
        yield n
        children = n.children
        if children:
            stack.extend(reversed(children))


def attr_val(node: Node, key: str) -> str:
    """First value of attribute ``key`` ("" when absent) — libhtml.go:46-53."""
    for k, v in node.attrs:
        if k == key:
            return v
    return ""


def element_by_id(root: Node, id_: str) -> Node | None:
    """First node (document order) with id == id_ — libhtml.go:55-68."""
    for n in walk(root):
        if n.tag is not None and attr_val_exact(n, "id", id_):
            return n
    return None


def attr_val_exact(node: Node, key: str, val: str) -> bool:
    return any(k == key and v == val for k, v in node.attrs)


def elements_by_attr_match(root: Node, key: str, pattern: re.Pattern) -> list[Node]:
    """All nodes where attr ``key``'s value matches regex — libhtml.go:70-74."""
    out = []
    for n in walk(root):
        if n.tag is None:
            continue
        for k, v in n.attrs:
            if k == key and pattern.search(v):
                out.append(n)
                break
    return out


def elements_by_tag(root: Node, *tags: str) -> list[Node]:
    """All nodes with one of the given tags, document order — libhtml.go:76-89."""
    tagset = set(tags)
    return [n for n in walk(root) if n.tag in tagset]


def elements_by_tag_and_attrs(root: Node, tag: str, attrs: list[tuple[str, str]]) -> list[Node]:
    """All ``tag`` elements carrying ALL given attrs exactly —
    libhtml.go:91-113 (utility surface, unused by the reference crawlers)."""
    out = []
    for n in walk(root):
        if n.tag == tag and match_attrs(n, attrs):
            out.append(n)
    return out


def match_attrs(node: Node, attrs: list[tuple[str, str]]) -> bool:
    """Node must carry ALL given (key, value) attrs exactly; an empty
    requirement set always matches — libhtml.go:124-142."""
    node_attrs = set(node.attrs)
    return all((k, v) in node_attrs for k, v in attrs)
