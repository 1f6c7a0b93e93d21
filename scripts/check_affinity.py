#!/usr/bin/env python3
"""Executor-affinity checker (DESIGN.md §10, docs/ANALYSIS.md).

The threading model of the event service is single-writer: every protocol
component (bus, channels, membership, proxies, members) is owned by one
Executor and its state is only touched from that executor's consumer
thread. Code that runs on a raw OS thread — the UDP receive loop — must
hand work over with Executor::post() instead of calling in directly.

This script proves the rule statically:

  1. It collects every method annotated AMUSE_AFFINITY(<label>) ("must run
     on its owning executor's consumer thread") and every function
     annotated AMUSE_RECEIVE_CONTEXT ("runs on a raw OS thread") or
     AMUSE_EGRESS_CONTEXT ("wire-egress surface, callable from any
     thread" — DESIGN.md §12).
  2. It builds a call graph over all function definitions in src/
     (call edges are matched by name, preferring a same-class method when
     the caller's class defines one; calls lexically inside the argument
     list of post()/schedule_at()/schedule_after() are *excluded*, because
     those closures execute later, on the executor).
  3. It walks the graph from each receive-context and egress-context entry
     point and fails on any path that reaches an affinity-annotated method
     — that would be a foreign thread mutating executor-owned state
     without the post() hop.

Backends:
  * text (default, dependency-free): a comment/string-stripping,
    brace-aware scanner over src/. This is the backend CI runs.
  * libclang (--backend libclang): resolves the same annotations from the
    clang AST via compile_commands.json (--build-dir). Requires the clang
    python bindings; used for spot-checking the text backend's graph.

Exit codes: 0 = clean, 1 = violation(s), 2 = usage/internal error.

`--self-test` runs the analyzer against embedded synthetic sources (a
direct violation, an indirect one through a helper, and a clean post()
hop) and fails if any is misjudged — so the ctest proves the checker
still *fires*, not merely that the tree passes.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

AFFINITY_MACRO = "AMUSE_AFFINITY"
RECEIVE_MACRO = "AMUSE_RECEIVE_CONTEXT"
EGRESS_MACRO = "AMUSE_EGRESS_CONTEXT"

# Executor hand-off calls: anything inside their argument parentheses runs
# later, on the executor's consumer thread, so it is exempt from the walk.
DEFER_CALLS = {"post", "schedule_at", "schedule_after"}

KEYWORDS = {
    "alignas", "alignof", "assert", "case", "catch", "const_cast",
    "decltype", "delete", "do", "dynamic_cast", "else", "for", "if",
    "new", "noexcept", "reinterpret_cast", "return", "sizeof",
    "static_assert", "static_cast", "switch", "throw", "typeid", "while",
}

IDENT_CALL = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
CLASS_HEAD = re.compile(r"\b(?:class|struct)\s+(?:\w+\s+)*?([A-Za-z_]\w*)\s*"
                        r"(?:\bfinal\s*)?(?::[^;{]*)?\{")


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literal *contents*, preserving every
    newline and the overall length so offsets keep matching the original."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = min(j, n - 1) + 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def matching(text: str, pos: int, open_ch: str, close_ch: str) -> int:
    """Index just past the bracket that closes text[pos] (which must be
    open_ch); returns len(text) when unbalanced."""
    depth = 0
    for i in range(pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


@dataclass
class Function:
    name: str                      # unqualified
    qualified: str                 # Class::name or name
    path: str
    line: int
    affinity: str | None = None    # executor label, if annotated
    receive_context: bool = False
    egress_context: bool = False
    calls: set[str] = field(default_factory=set)

    @property
    def context_kind(self) -> str:
        return "receive" if self.receive_context else "egress"


@dataclass
class Analysis:
    # name -> list of Function (decls and defs merged per qualified name)
    functions: dict[str, list[Function]] = field(default_factory=dict)

    def add(self, fn: Function) -> Function:
        for existing in self.functions.setdefault(fn.name, []):
            if existing.qualified == fn.qualified:
                existing.calls |= fn.calls
                existing.affinity = existing.affinity or fn.affinity
                existing.receive_context = (existing.receive_context
                                            or fn.receive_context)
                existing.egress_context = (existing.egress_context
                                           or fn.egress_context)
                return existing
        self.functions[fn.name].append(fn)
        return fn

    def annotated(self) -> list[Function]:
        return [f for fns in self.functions.values() for f in fns
                if f.affinity]

    def entry_points(self) -> list[Function]:
        return [f for fns in self.functions.values() for f in fns
                if f.receive_context or f.egress_context]

    def egress_entries(self) -> list[Function]:
        return [f for fns in self.functions.values() for f in fns
                if f.egress_context]


def class_context(clean: str):
    """Returns a function pos -> innermost class name (or "") using a
    single brace scan."""
    events = []  # (pos, kind, name) kind: 'open-class'|'open'|'close'
    for m in CLASS_HEAD.finditer(clean):
        events.append((m.end() - 1, "class", m.group(1)))
    spans = []
    stack = []  # (brace_depth_at_entry, name, start)
    depth = 0
    class_opens = {pos: name for pos, _, name in events}
    for i, ch in enumerate(clean):
        if ch == "{":
            if i in class_opens:
                stack.append((depth, class_opens[i], i))
            depth += 1
        elif ch == "}":
            depth -= 1
            if stack and stack[-1][0] == depth:
                _, name, start = stack.pop()
                spans.append((start, i, name))

    def lookup(pos: int) -> str:
        best = ""
        best_len = None
        for start, end, name in spans:
            if start <= pos <= end and (best_len is None
                                        or end - start < best_len):
                best, best_len = name, end - start
        return best

    return lookup


def find_name_after_macro(clean: str, pos: int) -> tuple[str, int] | None:
    """Function name declared after an annotation macro at `pos`: the
    identifier immediately before the first parameter-list '(' (skipping
    the '(' that belongs to other annotation macros or attributes)."""
    i = pos
    last_ident = None
    last_end = i
    while i < len(clean):
        m = re.compile(r"[A-Za-z_~]\w*|::|[<>()\[\];{}=,&*]|\S").match(
            clean, i) if not clean[i].isspace() else None
        if m is None:
            i += 1
            continue
        tok = m.group(0)
        if tok == ";" or tok == "{" or tok == "}":
            return None  # ran off the declaration without finding a call
        if tok == "(":
            if last_ident and last_ident not in ("AMUSE_AFFINITY",
                                                 "AMUSE_TSA", "annotate",
                                                 "__attribute__",
                                                 "nodiscard"):
                return last_ident, last_end
            # skip a macro/attribute argument list and continue
            i = matching(clean, m.start(), "(", ")")
            continue
        if tok == "[":
            # [[nodiscard]] etc.
            i = matching(clean, m.start(), "[", "]")
            continue
        if tok == "<":
            # template argument list in the return type
            i = matching(clean, m.start(), "<", ">")
            continue
        if re.match(r"[A-Za-z_~]", tok):
            last_ident = tok
            last_end = m.end()
        i = m.end()
    return None


def extract_annotations(clean: str, path: str, analysis: Analysis,
                        ctx_lookup) -> None:
    for macro, kind in ((AFFINITY_MACRO, "affinity"),
                        (RECEIVE_MACRO, "receive"),
                        (EGRESS_MACRO, "egress")):
        for m in re.finditer(r"\b" + macro + r"\b", clean):
            # Skip the macro's own #define and mentions in other macros.
            line_start = clean.rfind("\n", 0, m.start()) + 1
            if clean[line_start:m.start()].lstrip().startswith("#"):
                continue
            pos = m.end()
            label = None
            if kind == "affinity":
                if pos < len(clean) and clean[pos:].lstrip().startswith("("):
                    open_p = clean.index("(", pos)
                    close = matching(clean, open_p, "(", ")")
                    label = clean[open_p + 1:close - 1].strip()
                    pos = close
                else:
                    continue  # macro mention without arguments
            found = find_name_after_macro(clean, pos)
            if not found:
                continue
            name, name_end = found
            cls = ctx_lookup(name_end)
            fn = Function(
                name=name,
                qualified=f"{cls}::{name}" if cls else name,
                path=path,
                line=line_of(clean, m.start()),
            )
            if kind == "receive":
                fn.receive_context = True
            elif kind == "egress":
                fn.egress_context = True
            else:
                fn.affinity = label or "unspecified"
            analysis.add(fn)


DEF_HEAD = re.compile(
    r"(?:([A-Za-z_]\w*)\s*::\s*)?(~?[A-Za-z_]\w*)\s*\(")


def extract_definitions(clean: str, path: str, analysis: Analysis,
                        ctx_lookup) -> None:
    i = 0
    n = len(clean)
    while i < n:
        m = DEF_HEAD.search(clean, i)
        if not m:
            break
        cls, name = m.group(1), m.group(2)
        if name in KEYWORDS or name.startswith("~"):
            i = m.end()
            continue
        params_open = m.end() - 1
        params_close = matching(clean, params_open, "(", ")")
        # Scan the gap between ')' and '{' / ';': allow const, noexcept,
        # override, final, trailing return, ctor initializer lists.
        j = params_close
        ok = True
        while j < n:
            c = clean[j]
            if c == "{":
                break
            if c in ";}":
                ok = False
                break
            if c == "(":
                j = matching(clean, j, "(", ")")
                continue
            if c == "[":
                j = matching(clean, j, "[", "]")
                continue
            if c == "<":
                j = matching(clean, j, "<", ">")
                continue
            if c.isspace() or c.isalnum() or c in ":_,&*->=":
                j += 1
                continue
            ok = False
            break
        if not ok or j >= n:
            i = params_close
            continue
        body_end = matching(clean, j, "{", "}")
        body = clean[j + 1:body_end - 1]
        # Mask out deferred spans: arguments of post()/schedule_* calls run
        # later on the executor, not on this thread.
        masked = mask_deferred(body)
        calls = {c.group(1) for c in IDENT_CALL.finditer(masked)
                 if c.group(1) not in KEYWORDS}
        calls.discard(name)
        qual_cls = cls or ctx_lookup(m.start())
        fn = Function(
            name=name,
            qualified=f"{qual_cls}::{name}" if qual_cls else name,
            path=path,
            line=line_of(clean, m.start()),
            calls=calls,
        )
        analysis.add(fn)
        i = params_close  # re-scan inside the body for nested definitions

def mask_deferred(body: str) -> str:
    out = list(body)
    for m in IDENT_CALL.finditer(body):
        if m.group(1) in DEFER_CALLS:
            open_p = m.end() - 1
            close = matching(body, open_p, "(", ")")
            for k in range(open_p, close):
                if out[k] != "\n":
                    out[k] = " "
    return "".join(out)


def analyze_sources(sources: dict[str, str]) -> Analysis:
    analysis = Analysis()
    for path, text in sorted(sources.items()):
        clean = strip_comments_and_strings(text)
        ctx = class_context(clean)
        extract_annotations(clean, path, analysis, ctx)
        extract_definitions(clean, path, analysis, ctx)
    return analysis


def find_violations(analysis: Analysis) -> list[str]:
    violations = []

    def resolve(caller: Function, callee: str) -> list[Function]:
        """Candidate targets for a by-name call edge. An unqualified call
        from a member function resolves to the caller's own class first —
        e.g. UdpTransport::send_batch calling send() means
        UdpTransport::send, not every send() in the tree."""
        cands = analysis.functions.get(callee, [])
        if "::" in caller.qualified:
            cls = caller.qualified.split("::")[0]
            same = [c for c in cands if c.qualified == f"{cls}::{callee}"]
            if same:
                return same
        return cands

    for entry in analysis.entry_points():
        # BFS over call edges, remembering one path per reached name.
        queue = [(entry, [entry.qualified])]
        seen = {entry.qualified}
        while queue:
            fn, trail = queue.pop(0)
            for callee in sorted(fn.calls):
                for target in resolve(fn, callee):
                    if target.affinity:
                        violations.append(
                            f"{entry.path}:{entry.line}: "
                            f"{entry.context_kind} context "
                            f"'{entry.qualified}' reaches "
                            f"AMUSE_AFFINITY({target.affinity}) method "
                            f"'{target.qualified}' "
                            f"({target.path}:{target.line}) "
                            f"without an executor post() hop\n"
                            f"    call path: "
                            f"{' -> '.join(trail + [target.qualified])}"
                        )
                        continue
                    if target.qualified in seen:
                        continue
                    seen.add(target.qualified)
                    queue.append((target, trail + [target.qualified]))
    return violations


def load_tree_sources() -> dict[str, str]:
    sources = {}
    for dirpath, _dirnames, filenames in os.walk(SRC):
        for fname in sorted(filenames):
            if fname.endswith((".hpp", ".cpp")):
                full = os.path.join(dirpath, fname)
                rel = os.path.relpath(full, ROOT)
                with open(full, encoding="utf-8") as f:
                    sources[rel] = f.read()
    return sources


def run_libclang(build_dir: str) -> int:
    """AST-based cross-check via the clang python bindings. Optional: the
    text backend is authoritative in CI; this one validates its graph when
    a clang toolchain is available."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        print("check_affinity: libclang backend unavailable "
              "(no clang python bindings); use --backend text", file=sys.stderr)
        return 2
    db_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.exists(db_path):
        print(f"check_affinity: no compile_commands.json in {build_dir}",
              file=sys.stderr)
        return 2
    index = cindex.Index.create()
    db = cindex.CompilationDatabase.fromDirectory(build_dir)
    annotated = {}   # usr -> (label, displayname)
    receive = {}     # usr -> displayname
    edges = {}       # caller usr -> set of callee usrs
    names = {}       # usr -> displayname

    def visit(node, current):
        if node.kind in (cindex.CursorKind.CXX_METHOD,
                         cindex.CursorKind.FUNCTION_DECL,
                         cindex.CursorKind.CONSTRUCTOR,
                         cindex.CursorKind.DESTRUCTOR):
            usr = node.get_usr()
            names[usr] = node.displayname
            for child in node.get_children():
                if child.kind == cindex.CursorKind.ANNOTATE_ATTR:
                    if child.spelling.startswith("amuse::affinity:"):
                        annotated[usr] = (
                            child.spelling.split(":", 2)[2], node.displayname)
                    elif child.spelling in ("amuse::receive_context",
                                            "amuse::egress_context"):
                        receive[usr] = node.displayname
            current = usr if node.is_definition() else current
        if node.kind == cindex.CursorKind.CALL_EXPR and current:
            ref = node.referenced
            if ref is not None:
                if ref.spelling in DEFER_CALLS:
                    return  # don't descend: deferred arguments
                edges.setdefault(current, set()).add(ref.get_usr())
        for child in node.get_children():
            visit(child, current)

    seen_files = set()
    for cmd in db.getAllCompileCommands():
        src = cmd.filename
        if not src.startswith(SRC) or src in seen_files:
            continue
        seen_files.add(src)
        args = [a for a in list(cmd.arguments)[1:]
                if a not in (src, "-c", "-o")][:-1]
        tu = index.parse(src, args=args)
        visit(tu.cursor, None)

    failures = []
    for entry_usr, entry_name in receive.items():
        stack = [(entry_usr, [entry_name])]
        visited = {entry_usr}
        while stack:
            usr, trail = stack.pop()
            for callee in edges.get(usr, ()):
                if callee in annotated:
                    label, disp = annotated[callee]
                    failures.append(
                        f"receive context '{entry_name}' reaches "
                        f"AMUSE_AFFINITY({label}) '{disp}': "
                        f"{' -> '.join(trail + [disp])}")
                elif callee not in visited:
                    visited.add(callee)
                    stack.append((callee, trail + [names.get(callee, "?")]))
    for f in failures:
        print(f"check_affinity: VIOLATION: {f}", file=sys.stderr)
    print(f"check_affinity[libclang]: {len(receive)} entry points, "
          f"{len(annotated)} affinity methods, {len(failures)} violation(s)")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Self-test: synthetic sources the checker must judge correctly.
# ---------------------------------------------------------------------------

SELFTEST_VIOLATING = """
#include "common/annotations.hpp"
class Bus {
 public:
  AMUSE_AFFINITY(core_executor) void publish_state(int v);
};
void Bus::publish_state(int v) { (void)v; }
class Transport {
  AMUSE_RECEIVE_CONTEXT void receive_loop();
  Bus* bus_;
};
void Transport::receive_loop() {
  bus_->publish_state(42);  // BUG: direct cross-thread call
}
"""

SELFTEST_INDIRECT = """
#include "common/annotations.hpp"
class Bus {
 public:
  AMUSE_AFFINITY(core_executor) void publish_state(int v);
};
void Bus::publish_state(int v) { (void)v; }
class Transport {
  AMUSE_RECEIVE_CONTEXT void receive_loop();
  void helper();
  Bus* bus_;
};
void Transport::helper() { bus_->publish_state(7); }
void Transport::receive_loop() {
  helper();  // BUG: indirect cross-thread call through a helper
}
"""

SELFTEST_EGRESS_VIOLATING = """
#include "common/annotations.hpp"
class Channel {
 public:
  AMUSE_AFFINITY(owner_executor) void on_packet(int p);
};
void Channel::on_packet(int p) { (void)p; }
class Transport {
 public:
  AMUSE_EGRESS_CONTEXT void send_batch(int n);
  Channel* chan_;
};
void Transport::send_batch(int n) {
  chan_->on_packet(n);  // BUG: egress surface touching protocol state
}
"""

SELFTEST_EGRESS_SAME_CLASS_CLEAN = """
#include "common/annotations.hpp"
class Channel {
 public:
  AMUSE_AFFINITY(owner_executor) void send(int p);
};
void Channel::send(int p) { (void)p; }
class Transport {
 public:
  AMUSE_EGRESS_CONTEXT void send(int n);
  AMUSE_EGRESS_CONTEXT void send_batch(int n);
};
void Transport::send(int n) { (void)n; }
void Transport::send_batch(int n) {
  send(n);  // OK: resolves to Transport::send, not Channel::send
}
"""

SELFTEST_CLEAN = """
#include "common/annotations.hpp"
struct Executor { template <class F> void post(F f); };
class Bus {
 public:
  AMUSE_AFFINITY(core_executor) void publish_state(int v);
};
void Bus::publish_state(int v) { (void)v; }
class Transport {
  AMUSE_RECEIVE_CONTEXT void receive_loop();
  Executor* executor_;
  Bus* bus_;
};
void Transport::receive_loop() {
  executor_->post([this] { bus_->publish_state(42); });  // OK: hop
}
"""


def self_test() -> int:
    cases = [
        ("direct violation", SELFTEST_VIOLATING, 1),
        ("indirect violation", SELFTEST_INDIRECT, 1),
        ("clean post() hop", SELFTEST_CLEAN, 0),
        ("egress violation", SELFTEST_EGRESS_VIOLATING, 1),
        ("egress same-class resolution", SELFTEST_EGRESS_SAME_CLASS_CLEAN, 0),
    ]
    failed = False
    for label, source, expected in cases:
        analysis = analyze_sources({"selftest.cpp": source})
        violations = find_violations(analysis)
        got = 1 if violations else 0
        status = "ok" if got == expected else "FAIL"
        if got != expected:
            failed = True
        print(f"check_affinity --self-test: {label}: expected "
              f"{'violation' if expected else 'clean'}, got "
              f"{'violation' if got else 'clean'} [{status}]")
        if got != expected and violations:
            for v in violations:
                print(f"  {v}")
    # The real tree's entry point must be discovered, otherwise the checker
    # is vacuously green.
    tree = analyze_sources(load_tree_sources())
    entries = tree.entry_points()
    annotated = tree.annotated()
    if not entries:
        print("check_affinity --self-test: FAIL: no AMUSE_RECEIVE_CONTEXT "
              "entry point found in src/ (checker would be vacuous)")
        failed = True
    if len(annotated) < 10:
        print(f"check_affinity --self-test: FAIL: only {len(annotated)} "
              "AMUSE_AFFINITY methods found in src/ (expected the annotated "
              "protocol surface; did the parser regress?)")
        failed = True
    # The federation surface (DESIGN.md §11) runs on the member executor and
    # must stay inside the checked graph: FederationGateway::share/
    # reconcile/forward, checked by name like the standby surface below.
    gateway_names = {f.name for f in annotated
                     if os.path.join("smc", "gateway") in f.path}
    for required in ("share", "reconcile", "forward"):
        if required not in gateway_names:
            print("check_affinity --self-test: FAIL: "
                  f"FederationGateway::{required} is not AMUSE_AFFINITY-"
                  "annotated (gateway forwarding would be outside the "
                  "checked graph)")
            failed = True
    # The HA surface (DESIGN.md §13) is executor-owned too: the standby's
    # replication/lease/promotion entry points mutate the replica mirror and
    # build the promoted cell, and the active side's step_down tears the cell
    # down — a receive-thread path into any of them would corrupt failover
    # state exactly when it matters.
    standby_names = {f.name for f in annotated
                     if os.path.join("smc", "standby") in f.path}
    for required in ("on_repl", "check_lease", "promote"):
        if required not in standby_names:
            print("check_affinity --self-test: FAIL: "
                  f"StandbyCore::{required} is not AMUSE_AFFINITY-annotated "
                  "(the HA replication/promotion path would be outside the "
                  "checked graph)")
            failed = True
    if not any(f.qualified == "EventBus::step_down" for f in annotated):
        print("check_affinity --self-test: FAIL: EventBus::step_down is not "
              "AMUSE_AFFINITY-annotated (epoch fencing's deposed-core purge "
              "would be outside the checked graph)")
        failed = True
    # The real-wire datapath (DESIGN.md §12) must keep its egress surface
    # in the walk: UdpTransport::send/send_batch are callable from any
    # thread and the checker proves they never touch executor-owned state.
    egress = tree.egress_entries()
    net_egress = [f for f in egress if f.path.startswith(os.path.join("src",
                                                                      "net"))]
    if len(net_egress) < 2:
        print(f"check_affinity --self-test: FAIL: only {len(net_egress)} "
              "AMUSE_EGRESS_CONTEXT entry point(s) found in src/net "
              "(expected the UdpTransport send surface); the egress walk "
              "would be vacuous")
        failed = True
    if len(entries) < 2:
        print(f"check_affinity --self-test: FAIL: only {len(entries)} "
              "entry point(s) in the walk (expected receive + egress "
              "contexts)")
        failed = True
    print(f"check_affinity --self-test: tree has {len(entries)} entry "
          f"point(s) ({len(egress)} egress), {len(annotated)} "
          f"affinity-annotated method(s) ({len(gateway_names)} on the "
          f"federation gateway)")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build",
                        help="build tree with compile_commands.json "
                             "(libclang backend only)")
    parser.add_argument("--backend", choices=("text", "libclang", "auto"),
                        default="text")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded synthetic cases")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    if args.backend in ("libclang", "auto"):
        rc = run_libclang(args.build_dir)
        if args.backend == "libclang" or rc in (0, 1):
            return rc
        # auto: fall through to the text backend

    analysis = analyze_sources(load_tree_sources())
    violations = find_violations(analysis)
    for v in violations:
        print(f"check_affinity: VIOLATION: {v}", file=sys.stderr)
    entries = analysis.entry_points()
    annotated = analysis.annotated()
    print(f"check_affinity[text]: {len(entries)} entry point(s) "
          f"({len(analysis.egress_entries())} egress), "
          f"{len(annotated)} affinity-annotated method(s), "
          f"{len(violations)} violation(s)")
    if not entries:
        print("check_affinity: error: no AMUSE_RECEIVE_CONTEXT / "
              "AMUSE_EGRESS_CONTEXT entry point found — the walk is "
              "vacuous", file=sys.stderr)
        return 2
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
