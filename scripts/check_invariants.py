#!/usr/bin/env python3
"""Project invariant lint for the amuse event-service tree.

Run from the repo root (the CMake `check-invariants` target and the
`lint.check_invariants` ctest both do). Checks invariants that neither the
compiler nor clang-tidy enforce:

  I1  every header under src/ starts its include-guard life with
      `#pragma once` (no ad-hoc guard macros, no guardless headers)
  I2  no stdout chatter in the library: `std::cout` / `std::cerr` /
      `printf(` / `puts(` are banned in src/ — components log through
      common/log.hpp (snprintf into buffers is fine; the one sanctioned
      fprintf(stderr) lives in the default sink in common/log.cpp)
  I3  no blocking sleeps in src/: components schedule closures on the
      Executor, they never sleep a thread (`sleep_for`, `sleep_until`,
      `usleep`, `nanosleep`, bare `sleep(`)
  I4  no `using namespace` at namespace scope in headers
  I5  no `rand()` / `srand(` in src/ — determinism comes from common/rng.hpp
  I6  every .cpp under src/ is listed in src/CMakeLists.txt (a file that
      compiles only by accident of not being built is a latent break)
  I7  the torture harness (tests/torture/) is deterministic: no wall
      clocks (system_clock/steady_clock/high_resolution_clock, time(),
      gettimeofday) and no unseeded randomness (random_device, rand());
      every schedule must replay bit-identically from its TORTURE_SEED
  I8  overload accounting (DESIGN.md §9): a ReliableChannel::send call in
      src/ may legitimately fail under the delivery budgets, so every call
      site must either consume the return value (the caller accounts for
      the shed) or pass MsgClass::kControl (control-class sends always
      succeed). A bare or `(void)`-discarded data-class send is a silent
      drop waiting to happen
  I9  raw std synchronisation primitives (std::mutex, std::lock_guard,
      std::unique_lock, std::scoped_lock, std::shared_mutex,
      std::recursive_mutex, std::condition_variable) are banned in src/
      outside common/annotations.hpp — use amuse::Mutex / MutexLock /
      CondVar so clang's -Wthread-safety capability analysis can see every
      lock (DESIGN.md §10)
  I10 state-stream traffic is control-class (DESIGN.md §11, §13): any
      channel send whose payload is built from one of the state-stream
      factories — BusMessage::interest_update(...), repl_update(...) or
      resync_request(...) — must pass MsgClass::kControl, and so must every
      channel send inside a send_control(...) definition — the proxy's one
      bus → member control entry point both streams go through. Filter
      tables are routing state and the repl log is the state failover
      recovers from — a data-class send of either could be shed under the
      §9 budgets, silently leaving a mirror on a state the bus never meant
  I11 durable-state mutations go through the ReplStore choke points
      (DESIGN.md §13.6): the body of every ReplLog mutator must call
      commit_op(...) or persist_snapshot(...). A mutator that changes
      replicated state without journalling it leaves the write-ahead
      store one mutation behind forever — a kill-and-restart would
      recover a replica that silently lacks it
  I12 one timer path (DESIGN.md §10): outside src/sim/ there is no
      `TimerId` / `kNoTimer` and no Executor::cancel(id) call. A component
      owns each scheduled duty as an amuse::Timer (sim/timer.hpp), which
      binds the callback once and cancels itself on destruction; hand-kept
      timer ids are how callbacks came to outlive their owners. Timer's
      own cancel() takes no argument, so a `cancel(` call with one is an
      executor cancel
  I13 one counter type (DESIGN.md §10): the body of every `struct …Stats`
      under src/ holds only `Counter` fields (common/metrics.hpp: one
      writer, readable from any thread), and `std::atomic<std::uint64_t>`
      is spelled only in common/metrics.hpp, where Counter wraps it. A
      plain uint64_t counter is a data race the moment another thread
      reads it; a second atomic counter type is a second threading rule

`--self-test` rebuilds a scratch tree seeded with one violation per
invariant and fails unless every invariant fires — proof the checker
still matches, not merely that the tree passes.

Exit status: 0 clean, 1 violations (each printed as file:line: message).
"""
from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TORTURE = ROOT / "tests" / "torture"

violations: list[str] = []


def report(path: Path, lineno: int, message: str) -> None:
    violations.append(f"{path.relative_to(ROOT)}:{lineno}: {message}")


def strip_comments(line: str) -> str:
    """Crude single-line comment strip; good enough for pattern bans."""
    line = re.sub(r"//.*$", "", line)
    line = re.sub(r"/\*.*?\*/", "", line)
    return line


# I2/I3/I5 pattern bans, with per-file allowlists.
BANNED = [
    (re.compile(r"std::cout|std::cerr"), "I2: stdout/stderr stream in src/ (log through common/log.hpp)", set()),
    (re.compile(r"(?<![\w:])printf\s*\(|(?<![\w:])puts\s*\("), "I2: printf/puts in src/ (log through common/log.hpp)", set()),
    (re.compile(r"(?<![\w:])fprintf\s*\("), "I2: fprintf in src/ (only the default sink in common/log.cpp may)", {"src/common/log.cpp"}),
    (re.compile(r"sleep_for|sleep_until|(?<![\w:])usleep\s*\(|(?<![\w:])nanosleep\s*\(|(?<![\w:])sleep\s*\("), "I3: blocking sleep in src/ (schedule on the Executor instead)", set()),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "I5: C rand in src/ (use common/rng.hpp)", set()),
    (re.compile(r"std::(?:mutex|lock_guard|unique_lock|scoped_lock|"
                r"shared_mutex|recursive_mutex|condition_variable)\b"),
     "I9: raw std synchronisation primitive in src/ (use amuse::Mutex / "
     "MutexLock / CondVar from common/annotations.hpp so -Wthread-safety "
     "sees the lock)",
     {"src/common/annotations.hpp"}),
]

# I7: the torture harness replays fault schedules bit-identically from a
# seed, so nothing under tests/torture/ may consult a wall clock or an
# unseeded entropy source. (Simulated time comes from the Executor; all
# randomness flows from the schedule's TORTURE_SEED via common/rng.hpp.)
TORTURE_BANNED = [
    (re.compile(r"std::random_device|(?<![\w:])random_device\b"),
     "I7: random_device in tests/torture/ (seed all RNGs from the schedule seed)"),
    (re.compile(r"system_clock|steady_clock|high_resolution_clock"),
     "I7: wall clock in tests/torture/ (use the simulated Executor clock)"),
    (re.compile(r"(?<![\w:])time\s*\(|(?<![\w:])gettimeofday\s*\(|(?<![\w:])clock_gettime\s*\("),
     "I7: wall-clock call in tests/torture/ (use the simulated Executor clock)"),
    (re.compile(r"(?<![\w:])s?rand\s*\("),
     "I7: C rand in tests/torture/ (use common/rng.hpp seeded from the schedule)"),
]


def check_header_pragma(path: Path) -> None:
    in_block_comment = False
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if in_block_comment:
            if "*/" in line:
                in_block_comment = False
            continue
        if not line or line.startswith("//"):
            continue
        if line.startswith("/*"):
            if "*/" not in line:
                in_block_comment = True
            continue
        if line == "#pragma once":
            return
        report(path, lineno, "I1: first directive must be `#pragma once`")
        return
    report(path, 1, "I1: header has no `#pragma once`")


def check_banned_patterns(path: Path) -> None:
    rel = str(path.relative_to(ROOT))
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = strip_comments(raw)
        for pattern, message, allow in BANNED:
            if rel in allow:
                continue
            if pattern.search(line):
                report(path, lineno, message)


def check_using_namespace(path: Path) -> None:
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        if re.search(r"^\s*using\s+namespace\s", strip_comments(raw)):
            report(path, lineno, "I4: `using namespace` in a header")


def check_torture_determinism(path: Path) -> None:
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = strip_comments(raw)
        for pattern, message in TORTURE_BANNED:
            if pattern.search(line):
                report(path, lineno, message)


# I8: channel send() call sites. A match is compliant when the call's
# argument list names MsgClass::kControl, or when the statement consumes the
# return value (condition, assignment, `return`, negation…). An empty prefix
# (bare expression statement) or an explicit `(void)` discard on a
# data-class send is a violation: under the §9 budgets that send can shed
# the message, and nobody would know.
CHANNEL_SEND = re.compile(r"\bchannel_?(?:->|\.)\s*send\s*\(")


def check_channel_send_accounting(path: Path) -> None:
    raw_lines = path.read_text().splitlines()
    stripped = [strip_comments(line) for line in raw_lines]
    text = "\n".join(stripped)
    for m in CHANNEL_SEND.finditer(text):
        lineno = text.count("\n", 0, m.start()) + 1
        # Capture the full (possibly multi-line) argument list.
        depth = 0
        end = m.end() - 1  # at the opening '('
        while end < len(text):
            if text[end] == "(":
                depth += 1
            elif text[end] == ")":
                depth -= 1
                if depth == 0:
                    break
            end += 1
        call = text[m.start() : end + 1]
        if "MsgClass::kControl" in call:
            continue
        line_start = text.rfind("\n", 0, m.start()) + 1
        prefix = text[line_start : m.start()].strip()
        if prefix in ("", "(void)"):
            report(
                path,
                lineno,
                "I8: data-class channel send ignores its return value "
                "(check it or pass MsgClass::kControl)",
            )


# I10: state-stream messages ride the never-shed control class. Any send()
# whose argument list builds its payload from the state-stream factories —
# or that sits in the body of a send_control() definition — must also name
# MsgClass::kControl in that same call.
SEND_CALL = re.compile(r"\bsend\s*\(")
STREAM_PAYLOAD = re.compile(r"\b(?:interest_update|repl_update|resync_request)\s*\(")
CONTROL_ENTRY = re.compile(r"::send_control\s*\([^)]*\)\s*\{")


def control_entry_spans(text: str) -> list[tuple[int, int]]:
    spans = []
    for m in CONTROL_ENTRY.finditer(text):
        depth = 0
        end = m.end() - 1  # at the opening '{'
        while end < len(text):
            if text[end] == "{":
                depth += 1
            elif text[end] == "}":
                depth -= 1
                if depth == 0:
                    break
            end += 1
        spans.append((m.end(), end))
    return spans


def check_stream_control_class(path: Path) -> None:
    stripped = [strip_comments(line) for line in path.read_text().splitlines()]
    text = "\n".join(stripped)
    entries = control_entry_spans(text)
    for m in SEND_CALL.finditer(text):
        depth = 0
        end = m.end() - 1  # at the opening '('
        while end < len(text):
            if text[end] == "(":
                depth += 1
            elif text[end] == ")":
                depth -= 1
                if depth == 0:
                    break
            end += 1
        call = text[m.start() : end + 1]
        in_entry = any(lo <= m.start() < hi for lo, hi in entries)
        if (STREAM_PAYLOAD.search(call) or in_entry) and "MsgClass::kControl" not in call:
            report(
                path,
                text.count("\n", 0, m.start()) + 1,
                "I10: state-stream or control-entry send without "
                "MsgClass::kControl (filter tables and repl traffic must "
                "never be shed — DESIGN.md §11, §13)",
            )


# I11: every ReplLog mutator journals through the ReplStore choke points.
# The mutator set is pinned by name — adding a mutator without extending
# this list is caught in review, while adding one that skips the store is
# caught here. Accessors / drains (take_update, snapshot, dirty, ...) are
# deliberately absent: they must NOT touch the store.
REPLLOG_MUTATORS = {
    "restore",
    "set_store",
    "set_epoch",
    "member_admitted",
    "member_purged",
    "standby_admitted",
    "standby_purged",
    "sub_added",
    "sub_removed",
    "spool_append",
    "counters_changed",
}
REPLLOG_DEF = re.compile(r"\bReplLog::(\w+)\s*\(")
REPLLOG_CHOKE = re.compile(r"\b(?:commit_op|persist_snapshot)\s*\(")


def check_repllog_store_choke_points(path: Path) -> None:
    stripped = [strip_comments(line) for line in path.read_text().splitlines()]
    text = "\n".join(stripped)
    for m in REPLLOG_DEF.finditer(text):
        name = m.group(1)
        if name not in REPLLOG_MUTATORS:
            continue
        # Walk past the parameter list, then to the body's opening brace
        # (a ';' first means this is a declaration/call, not a definition).
        depth = 0
        pos = m.end() - 1  # at the opening '('
        while pos < len(text):
            if text[pos] == "(":
                depth += 1
            elif text[pos] == ")":
                depth -= 1
                if depth == 0:
                    break
            pos += 1
        body_start = -1
        for pos in range(pos + 1, len(text)):
            if text[pos] == "{":
                body_start = pos
                break
            if text[pos] == ";":
                break
        if body_start < 0:
            continue
        depth = 0
        end = body_start
        while end < len(text):
            if text[end] == "{":
                depth += 1
            elif text[end] == "}":
                depth -= 1
                if depth == 0:
                    break
            end += 1
        body = text[body_start : end + 1]
        if not REPLLOG_CHOKE.search(body):
            report(
                path,
                text.count("\n", 0, m.start()) + 1,
                f"I11: ReplLog::{name} mutates replicated state without "
                "commit_op(...) or persist_snapshot(...) — the ReplStore "
                "journal would silently miss it (DESIGN.md §13.6)",
            )


# I12: timer ids stay inside src/sim/. Executor::cancel takes the id, so a
# `.cancel(` / `->cancel(` call with an argument is an executor cancel;
# Timer::cancel() has none.
TIMER_ID = re.compile(r"\b(?:TimerId|kNoTimer)\b")
EXECUTOR_CANCEL = re.compile(r"(?:\.|->)\s*cancel\s*\(\s*[^\s)]")


def check_timer_ownership(path: Path) -> None:
    if str(path.relative_to(ROOT)).startswith("src/sim/"):
        return
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = strip_comments(raw)
        if TIMER_ID.search(line):
            report(path, lineno, "I12: TimerId/kNoTimer outside src/sim/ "
                   "(own the duty as an amuse::Timer, sim/timer.hpp)")
        if EXECUTOR_CANCEL.search(line):
            report(path, lineno, "I12: Executor::cancel(id) outside src/sim/ "
                   "(own the duty as an amuse::Timer, sim/timer.hpp)")


# I13: Stats structs hold only Counters; the atomic stays in metrics.hpp.
STATS_STRUCT = re.compile(r"^\s*struct\s+\w*Stats\s*\{")
STRUCT_END = re.compile(r"^\s*\};")
COUNTER_FIELD = re.compile(r"^\s*Counter\s+\w+\s*;\s*$")
ATOMIC_U64 = re.compile(r"std::atomic\s*<\s*(?:std::)?uint64_t\s*>|"
                        r"std::atomic_uint64_t\b")


def check_counter_stats(path: Path) -> None:
    metrics = str(path.relative_to(ROOT)) == "src/common/metrics.hpp"
    in_stats = False
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = strip_comments(raw)
        if not metrics and ATOMIC_U64.search(line):
            report(path, lineno, "I13: std::atomic<std::uint64_t> outside "
                   "common/metrics.hpp (count with amuse::Counter)")
        if STATS_STRUCT.match(line):
            in_stats = True
        elif in_stats and STRUCT_END.match(line):
            in_stats = False
        elif in_stats and line.strip() and not COUNTER_FIELD.match(line):
            report(path, lineno, "I13: a Stats struct field that is not a "
                   "Counter (common/metrics.hpp)")


def check_cmake_lists_all_sources() -> None:
    cmake = (SRC / "CMakeLists.txt").read_text()
    listed = set(re.findall(r"([\w/]+\.cpp)", cmake))
    for cpp in sorted(SRC.rglob("*.cpp")):
        rel = str(cpp.relative_to(SRC))
        if rel not in listed:
            report(cpp, 1, "I6: source file not listed in src/CMakeLists.txt")


def run_checks() -> list[str]:
    violations.clear()
    headers = sorted(SRC.rglob("*.hpp"))
    sources = sorted(SRC.rglob("*.cpp"))
    for h in headers:
        check_header_pragma(h)
        check_using_namespace(h)
    for f in headers + sources:
        check_banned_patterns(f)
        check_channel_send_accounting(f)
        check_stream_control_class(f)
        check_repllog_store_choke_points(f)
        check_timer_ownership(f)
        check_counter_stats(f)
    torture_files = sorted(TORTURE.rglob("*.hpp")) + sorted(TORTURE.rglob("*.cpp"))
    for f in torture_files:
        check_torture_determinism(f)
    check_cmake_lists_all_sources()
    return list(violations), len(headers), len(sources)


# One seeded violation per invariant; --self-test fails unless each fires.
SELFTEST_FILES = {
    "src/bad_guard.hpp": ("I1", "#ifndef BAD_GUARD\n#define BAD_GUARD\n#endif\n"),
    "src/chatty.cpp": ("I2", "#include <iostream>\nvoid f() { std::cout << 1; }\n"),
    "src/sleepy.cpp": ("I3", "#include <thread>\nvoid g() { std::this_thread::sleep_for(x); }\n"),
    "src/using.hpp": ("I4", "#pragma once\nusing namespace std;\n"),
    "src/randy.cpp": ("I5", "int h() { return rand(); }\n"),
    "src/unlisted.cpp": ("I6", "void unlisted() {}\n"),
    "tests/torture/clocky.cpp": ("I7", "auto t = std::chrono::steady_clock::now();\n"),
    "src/dropper.cpp": ("I8", "void d() {\n  (void)channel_->send(payload);\n}\n"),
    "src/locky.cpp": ("I9", "#include <mutex>\nstd::mutex mu;\n"),
    # Consumes the return value so I8 stays quiet; I10 alone must fire.
    "src/repl_plain.cpp": ("I10", "bool r() {\n  return channel_->send(BusMessage::repl_update(u).encode());\n}\n"),
    # A member's resync request sent as data-class traffic.
    "src/resync_plain.cpp": ("I10", "bool s() {\n  return channel_->send(\n      BusMessage::resync_request(BusMsgType::kInterestUpdate).encode());\n}\n"),
    # The control entry point sending data-class (return consumed: I8 quiet).
    "src/control_entry.cpp": ("I10", "void P::send_control(const BusMessage& m) {\n  if (!channel_->send(m.encode())) return;\n}\n"),
    # A ReplLog mutator that skips the ReplStore choke points.
    "src/repl_mutator.cpp": ("I11", "void ReplLog::standby_admitted(ServiceId id) {\n  state_.standbys.insert(id.raw());\n}\n"),
    # A hand-kept timer id, and an executor cancel (Timer::cancel() is fine).
    "src/timer_id.hpp": ("I12", "#pragma once\nstruct Owner {\n  TimerId timer_;\n};\n"),
    "src/timer_cancel.cpp": ("I12", "void Owner::stop() {\n  beacon_timer_.cancel();\n  executor_.cancel(timer_);\n}\n"),
    # A plain field in a Stats struct, and an atomic counter of its own.
    "src/plain_stats.hpp": ("I13", "#pragma once\nstruct Stats {\n  Counter sent;\n  std::uint64_t dropped = 0;\n};\n"),
    "src/own_atomic.hpp": ("I13", "#pragma once\nstruct Pool {\n  std::atomic<std::uint64_t> fresh_{0};\n};\n"),
}


def self_test() -> int:
    global ROOT, SRC, TORTURE
    saved = (ROOT, SRC, TORTURE)
    failed = False
    with tempfile.TemporaryDirectory(prefix="check_invariants_") as tmp:
        root = Path(tmp)
        for rel, (_inv, content) in SELFTEST_FILES.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
        # I6 wants a CMakeLists that lists every source *except* the seeded
        # one (and not the other seeds either — each must trip its own
        # invariant, so list them all but unlisted.cpp).
        listed = [rel[len("src/"):] for rel in SELFTEST_FILES
                  if rel.startswith("src/") and rel.endswith(".cpp")
                  and rel != "src/unlisted.cpp"]
        (root / "src" / "CMakeLists.txt").write_text(
            "\n".join(f"  {f}" for f in listed) + "\n")
        try:
            ROOT, SRC, TORTURE = root, root / "src", root / "tests" / "torture"
            found, _h, _s = run_checks()
        finally:
            ROOT, SRC, TORTURE = saved
        for rel, (inv, _content) in sorted(SELFTEST_FILES.items()):
            hits = [v for v in found if v.startswith(rel) and f"{inv}:" in v]
            status = "ok" if hits else "FAIL"
            if not hits:
                failed = True
            print(f"check_invariants --self-test: {inv} fires on {rel} [{status}]")
        unexpected = [v for v in found
                      if not any(v.startswith(rel) and f"{inv}:" in v
                                 for rel, (inv, _c) in SELFTEST_FILES.items())]
        for v in unexpected:
            print(f"check_invariants --self-test: unexpected: {v}")
    if failed:
        print("check_invariants --self-test: FAIL")
        return 1
    print(f"check_invariants --self-test: OK — all {len(SELFTEST_FILES)} "
          "seeded violations fire")
    return 0


def main() -> int:
    if "--self-test" in sys.argv[1:]:
        return self_test()
    found, n_headers, n_sources = run_checks()
    if found:
        for v in found:
            print(v)
        print(f"check_invariants: FAIL — {len(found)} violation(s)")
        return 1
    print(
        f"check_invariants: OK — {n_headers} headers, "
        f"{n_sources} sources clean"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
