#!/usr/bin/env python3
"""scmd_lint: project-specific static checks (docs/CHECKING.md).

Rules (each a bug class the compiler alone does not catch):

  raw-tag           An integer-literal tag in a send()/recv() call outside
                    src/net/tags.hpp.  Every wire tag must resolve to the
                    central registry so the compile-time disjointness
                    proof covers it.
  mutex-annotation  A std::mutex / std::recursive_mutex /
                    std::condition_variable declaration outside
                    src/support/thread_safety.hpp.  Concurrent code uses
                    the annotated scmd::Mutex family so Clang's
                    -Wthread-safety analysis sees every acquisition.
  naked-new         A `new` expression.  Ownership goes through
                    containers and std::make_unique.
  std-rand          std::rand()/srand().  Randomness goes through
                    <random> engines seeded explicitly (reproducibility).
  unpack-try        unpack<T>() applied to a transport recv() without a
                    nearby shape validation (SCMD_REQUIRE / try) — a
                    malformed frame from the wire must fail loudly at the
                    receive site, not corrupt state downstream.
  tsa-escape        SCMD_NO_THREAD_SAFETY_ANALYSIS inside src/net,
                    src/obs, or src/parallel — the zero-escape-hatch
                    directories (an escape there hides exactly the bugs
                    the analysis exists to catch).
  service-tags      A send()/recv() in src/serve whose tag is neither a
                    `tags::kSvc*` constant nor the subset layer's
                    pass-through `tag` variable.  The service control
                    plane owns exactly the kSvcBase window
                    (docs/SERVICE.md); borrowing an MD channel would race
                    the jobs the daemon is multiplexing.
  raw-socket        A socket syscall (::socket, ::connect, ::accept,
                    ::send, ::sendmsg, ::recv, ::setsockopt and kin) in
                    src/ outside src/net/socket.cpp.  Every endpoint goes
                    through the socket layer, so TCP_NODELAY and one
                    write per frame hold everywhere (a frame split over
                    two writes on a Nagle socket waits out a ~40 ms
                    delayed ACK).  Tests and benches may make raw calls.
  tag-docs          The tag table in docs/TRANSPORT.md disagrees with the
                    kRegistry in src/net/tags.hpp (docs must not drift
                    from the code).

Suppressions: tools/lint/lint_suppressions.txt holds `rule:path` lines
(repo-relative path, whole-file, per-rule) with a justification comment
above each.  Keep it short.

Usage:
  scmd_lint.py [--root DIR] [--list-rules] [paths...]

With no paths, lints the whole tree under --root (default: the repo root
two levels above this script).  Paths are repo-relative or absolute.
Exit status: 0 clean, 1 findings, 2 internal/usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Callable, Iterable, NamedTuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

SOURCE_DIRS = ("src", "apps", "bench", "tests", "examples")
SOURCE_EXTS = (".cpp", ".hpp", ".h", ".cc")

TAGS_HPP = "src/net/tags.hpp"
SOCKET_CPP = "src/net/socket.cpp"
THREAD_SAFETY_HPP = "src/support/thread_safety.hpp"
TRANSPORT_MD = "docs/TRANSPORT.md"
SUPPRESSIONS = "tools/lint/lint_suppressions.txt"

# Directories whose recv() paths take frames straight off the wire.
RECEIVE_PATH_DIRS = ("src/net", "src/parallel", "src/balance", "src/ckpt",
                     "src/obs", "src/serve")

# The service control plane (docs/SERVICE.md) and its reserved window.
SERVE_DIR = "src/serve"

# The acceptance bar: no thread-safety escape hatches in these.
NO_ESCAPE_DIRS = ("src/net", "src/obs", "src/parallel")


class Finding(NamedTuple):
    rule: str
    path: str  # repo-relative
    line: int  # 1-based
    message: str


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments, string and char literals, preserving newlines
    and column positions so findings keep exact line numbers."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        else:  # str | chr
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(" ")
        i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def split_top_level_args(argtext: str) -> list[str]:
    args, depth, start = [], 0, 0
    for i, c in enumerate(argtext):
        if c in "([{<":
            # `<` is approximate (templates vs less-than); good enough for
            # the literal-in-second-argument question this rule asks.
            depth += 1
        elif c in ")]}>":
            depth = max(0, depth - 1)
        elif c == "," and depth == 0:
            args.append(argtext[start:i])
            start = i + 1
    args.append(argtext[start:])
    return args


def balanced_paren_span(text: str, open_at: int) -> int:
    """Index one past the `)` matching the `(` at open_at, or -1."""
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


INT_LITERAL = re.compile(r"^\s*(?:0[xX][0-9a-fA-F]+|\d+)\s*$")
SEND_RECV = re.compile(r"(?<![\w:])(send|recv)\s*\(")


def rule_raw_tag(path: str, text: str) -> Iterable[Finding]:
    if path == TAGS_HPP:
        return
    code = strip_comments_and_strings(text)
    for m in SEND_RECV.finditer(code):
        # ::send / ::recv are the socket syscalls, not Transport calls.
        before = code[:m.start()].rstrip()
        if before.endswith("::"):
            continue
        open_at = code.index("(", m.end() - 1)
        close = balanced_paren_span(code, open_at)
        if close < 0:
            continue
        args = split_top_level_args(code[open_at + 1:close - 1])
        # send(dst, tag, payload) / recv(src, tag): tag is argument 2.
        if len(args) < 2:
            continue
        if INT_LITERAL.match(args[1]):
            yield Finding(
                "raw-tag", path, line_of(code, m.start()),
                f"{m.group(1)}() with raw integer tag {args[1].strip()}; "
                f"use a constant from {TAGS_HPP}")


MUTEX_DECL = re.compile(
    r"\bstd\s*::\s*(?:recursive_|shared_|timed_)?mutex\b"
    r"|\bstd\s*::\s*condition_variable(?:_any)?\b")


def rule_mutex_annotation(path: str, text: str) -> Iterable[Finding]:
    if path == THREAD_SAFETY_HPP:
        return
    code = strip_comments_and_strings(text)
    for m in MUTEX_DECL.finditer(code):
        yield Finding(
            "mutex-annotation", path, line_of(code, m.start()),
            f"{m.group(0)} outside {THREAD_SAFETY_HPP}; use scmd::Mutex / "
            "RecursiveMutex / CondVar so the thread-safety analysis sees "
            "the capability")


NEW_EXPR = re.compile(r"(?<![\w.:>])new(?![\w])")


def rule_naked_new(path: str, text: str) -> Iterable[Finding]:
    code = strip_comments_and_strings(text)
    for m in NEW_EXPR.finditer(code):
        # Skip preprocessor directives (`#include <new>`).
        line_start = code.rfind("\n", 0, m.start()) + 1
        if code[line_start:m.start()].lstrip().startswith("#"):
            continue
        # `operator new` is the allocator primitive (e.g. the over-aligned
        # allocator in support/aligned.hpp), not an ownership leak.
        if code[:m.start()].rstrip().endswith("operator"):
            continue
        yield Finding(
            "naked-new", path, line_of(code, m.start()),
            "naked new; use std::make_unique or a container")


STD_RAND = re.compile(r"\bstd\s*::\s*s?rand\b|(?<![\w:.])s?rand\s*\(")


def rule_std_rand(path: str, text: str) -> Iterable[Finding]:
    code = strip_comments_and_strings(text)
    for m in STD_RAND.finditer(code):
        yield Finding(
            "std-rand", path, line_of(code, m.start()),
            "std::rand/srand; use a <random> engine with an explicit seed")


UNPACK_OF_RECV = re.compile(r"\bunpack\s*<")
VALIDATION = re.compile(r"\bSCMD_REQUIRE\b|\btry\b|\bcatch\b")
UNPACK_WINDOW = 4  # lines after the unpack that may carry the validation


def rule_unpack_try(path: str, text: str) -> Iterable[Finding]:
    if not path.startswith(RECEIVE_PATH_DIRS):
        return
    code = strip_comments_and_strings(text)
    lines = code.split("\n")
    for m in UNPACK_OF_RECV.finditer(code):
        open_at = code.find("(", m.end())
        if open_at < 0:
            continue
        close = balanced_paren_span(code, open_at)
        if close < 0 or "recv" not in code[open_at:close]:
            continue
        ln = line_of(code, m.start())
        window = "\n".join(lines[max(0, ln - 2):ln + UNPACK_WINDOW])
        if not VALIDATION.search(window):
            yield Finding(
                "unpack-try", path, ln,
                "unpack of a transport recv() without a nearby shape "
                "validation (SCMD_REQUIRE within "
                f"{UNPACK_WINDOW} lines, or try/catch)")


SVC_TAG_ARG = re.compile(r"^\s*tags\s*::\s*kSvc\w+\s*$")
# A bare `tag` (the subset layer's verbatim forward) or the `int tag`
# parameter of a send/recv *declaration* — declarations aren't call sites.
PASS_THROUGH_TAG_ARG = re.compile(r"^\s*(?:int\s+)?tag\s*$")


def rule_service_tags(path: str, text: str) -> Iterable[Finding]:
    if not path.startswith(SERVE_DIR):
        return
    code = strip_comments_and_strings(text)
    for m in SEND_RECV.finditer(code):
        before = code[:m.start()].rstrip()
        if before.endswith("::"):  # socket syscalls
            continue
        open_at = code.index("(", m.end() - 1)
        close = balanced_paren_span(code, open_at)
        if close < 0:
            continue
        args = split_top_level_args(code[open_at + 1:close - 1])
        if len(args) < 2:
            continue
        tag_arg = args[1]
        # The subset transport remaps ranks and forwards the caller's tag
        # verbatim — that pass-through is the one non-kSvc tag allowed.
        if SVC_TAG_ARG.match(tag_arg) or PASS_THROUGH_TAG_ARG.match(tag_arg):
            continue
        yield Finding(
            "service-tags", path, line_of(code, m.start()),
            f"{m.group(1)}() in {SERVE_DIR} with tag {tag_arg.strip()!r}; "
            "the service control plane must use tags::kSvc* (or forward "
            "the caller's `tag` in the subset remap layer)")


# A global-scope socket syscall; `Class::send(` and `std::bind(` are
# not, because a name precedes their `::`.
SOCKET_CALL = re.compile(
    r"(?<![\w:])::\s*(socket|socketpair|connect|accept4?|bind|listen|"
    r"send|sendto|sendmsg|recv|recvfrom|recvmsg|setsockopt|getsockopt|"
    r"shutdown)\s*\(")


def rule_raw_socket(path: str, text: str) -> Iterable[Finding]:
    if not path.startswith("src/") or path == SOCKET_CPP:
        return
    code = strip_comments_and_strings(text)
    for m in SOCKET_CALL.finditer(code):
        yield Finding(
            "raw-socket", path, line_of(code, m.start()),
            f"::{m.group(1)}() outside {SOCKET_CPP}; use the net/socket.hpp "
            "helpers (dial, accept_conn, write_all, read_all, ...)")


def rule_tsa_escape(path: str, text: str) -> Iterable[Finding]:
    if path == THREAD_SAFETY_HPP or not path.startswith(NO_ESCAPE_DIRS):
        return
    code = strip_comments_and_strings(text)
    for m in re.finditer(r"\bSCMD_NO_THREAD_SAFETY_ANALYSIS\b", code):
        yield Finding(
            "tsa-escape", path, line_of(code, m.start()),
            "thread-safety escape hatch in a zero-escape directory "
            f"({', '.join(NO_ESCAPE_DIRS)}); fix the discipline instead")


# ---------------------------------------------------------------------------
# tag-docs: docs/TRANSPORT.md table vs src/net/tags.hpp kRegistry.

CONST_DEF = re.compile(
    r"inline\s+constexpr\s+int\s+(k\w+)\s*=\s*([0-9]+|0[xX][0-9a-fA-F]+)\s*;")
REGISTRY_ENTRY = re.compile(
    r'\{\s*"([^"]+)"\s*,\s*(\w+)\s*,\s*(\w+)\s*\}')


def parse_tags_hpp(text: str) -> dict[str, tuple[int, int]]:
    """name -> (base, width) from the kRegistry array."""
    consts: dict[str, int] = {}
    for m in CONST_DEF.finditer(text):
        consts[m.group(1)] = int(m.group(2), 0)
    arr = re.search(r"kRegistry\[\]\s*=\s*\{(.*?)\n\};", text, re.S)
    if arr is None:
        raise ValueError(f"no kRegistry array found in {TAGS_HPP}")
    registry: dict[str, tuple[int, int]] = {}
    for m in REGISTRY_ENTRY.finditer(arr.group(1)):
        name, base_tok, width_tok = m.groups()

        def resolve(tok: str) -> int:
            if tok in consts:
                return consts[tok]
            return int(tok, 0)

        registry[name] = (resolve(base_tok), resolve(width_tok))
    if not registry:
        raise ValueError(f"kRegistry in {TAGS_HPP} parsed empty")
    return registry


TABLE_ROW = re.compile(
    r"^\|\s*`([^`]+)`\s*\|\s*([0-9]+)(?:\s*[-–]\s*([0-9]+))?\s*\|")


def parse_transport_md(text: str) -> dict[str, tuple[int, int]]:
    """name -> (base, width) from the markdown tag table (rows of the
    form `| `name` | base[-last] | ... |`)."""
    table: dict[str, tuple[int, int]] = {}
    for line in text.split("\n"):
        m = TABLE_ROW.match(line.strip())
        if not m:
            continue
        name, base, last = m.group(1), int(m.group(2)), m.group(3)
        width = (int(last) - int(m.group(2)) + 1) if last else 1
        table[name] = (base, width)
    return table


def rule_tag_docs(root: str) -> Iterable[Finding]:
    tags_path = os.path.join(root, TAGS_HPP)
    docs_path = os.path.join(root, TRANSPORT_MD)
    try:
        with open(tags_path, encoding="utf-8") as f:
            registry = parse_tags_hpp(f.read())
    except (OSError, ValueError) as e:
        yield Finding("tag-docs", TAGS_HPP, 1, str(e))
        return
    try:
        with open(docs_path, encoding="utf-8") as f:
            documented = parse_transport_md(f.read())
    except OSError as e:
        yield Finding("tag-docs", TRANSPORT_MD, 1, str(e))
        return
    if not documented:
        yield Finding("tag-docs", TRANSPORT_MD, 1,
                      "no tag table found (rows `| `name` | base[-last] |`)")
        return
    for name, (base, width) in sorted(registry.items()):
        if name not in documented:
            yield Finding("tag-docs", TRANSPORT_MD, 1,
                          f"registered tag range `{name}` ({base}, width "
                          f"{width}) is not documented")
        elif documented[name] != (base, width):
            dbase, dwidth = documented[name]
            yield Finding("tag-docs", TRANSPORT_MD, 1,
                          f"`{name}` documented as ({dbase}, width {dwidth}) "
                          f"but registered as ({base}, width {width})")
    for name in sorted(set(documented) - set(registry)):
        yield Finding("tag-docs", TRANSPORT_MD, 1,
                      f"documented tag range `{name}` is not in the registry")


# ---------------------------------------------------------------------------

PER_FILE_RULES: dict[str, Callable[[str, str], Iterable[Finding]]] = {
    "raw-tag": rule_raw_tag,
    "mutex-annotation": rule_mutex_annotation,
    "naked-new": rule_naked_new,
    "std-rand": rule_std_rand,
    "unpack-try": rule_unpack_try,
    "service-tags": rule_service_tags,
    "tsa-escape": rule_tsa_escape,
    "raw-socket": rule_raw_socket,
}

TREE_RULES = {"tag-docs": rule_tag_docs}

ALL_RULES = sorted(list(PER_FILE_RULES) + list(TREE_RULES))


def load_suppressions(root: str) -> set[tuple[str, str]]:
    path = os.path.join(root, SUPPRESSIONS)
    entries: set[tuple[str, str]] = set()
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for ln, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            rule, sep, rel = line.partition(":")
            if not sep or rule not in ALL_RULES:
                raise ValueError(
                    f"{SUPPRESSIONS}:{ln}: expected `rule:path` with rule "
                    f"in {ALL_RULES}, got {line!r}")
            entries.add((rule, rel.strip()))
    return entries


def iter_source_files(root: str) -> Iterable[str]:
    for top in SOURCE_DIRS:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, top)):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


def lint_files(root: str, rel_paths: Iterable[str]) -> list[Finding]:
    findings: list[Finding] = []
    for rel in rel_paths:
        try:
            with open(os.path.join(root, rel), encoding="utf-8",
                      errors="replace") as f:
                text = f.read()
        except OSError as e:
            findings.append(Finding("internal", rel, 1, str(e)))
            continue
        for rule_fn in PER_FILE_RULES.values():
            findings.extend(rule_fn(rel.replace(os.sep, "/"), text))
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="scmd_lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repository root (default: auto-detected)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--no-suppressions", action="store_true",
                        help="ignore the committed suppression file")
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: whole tree)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(rule)
        return 0

    root = os.path.abspath(args.root)
    if args.paths:
        rels = []
        for p in args.paths:
            ap = os.path.abspath(p)
            rels.append(os.path.relpath(ap, root))
        whole_tree = False
    else:
        rels = list(iter_source_files(root))
        whole_tree = True

    try:
        suppressed = (set() if args.no_suppressions
                      else load_suppressions(root))
    except ValueError as e:
        print(f"scmd_lint: {e}", file=sys.stderr)
        return 2

    findings = lint_files(root, rels)
    if whole_tree:
        findings.extend(TREE_RULES["tag-docs"](root))

    kept = [f for f in findings if (f.rule, f.path) not in suppressed]
    for f in sorted(kept):
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
    if kept:
        print(f"scmd_lint: {len(kept)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
