#!/usr/bin/env python3
"""Fails when a metric series name is read but never registered, or is
registered but undocumented.

Every count the runtime keeps lives in the process-wide
telemetry::MetricsRegistry, and tests, benches, examples and perfbench
read it by series name (tests/CounterDelta.h, perfbench's CounterSnap).
A series that no code registers reads as zero, so a misspelt name makes
an assertion such as `EXPECT_EQ(D("cg_..."), 0u)` pass vacuously. Two
checks:

1. Every `cg_*` series named by a string literal in a file under tests/,
   bench/, examples/ or perfbench/ that reads the global registry is
   registered by some file under src/ (a `counter(`, `gauge(` or
   `histogram(` call with that literal). Test-local registries name
   their series `cg_test_*` and are skipped; files that never touch the
   global registry are skipped too, so file-name literals such as
   `cg_tdb_*` are not mistaken for reads.
2. Every series registered under src/ is named in docs/observability.md.

Wired into the CI `docs` job.
"""

import os
import re
import sys

REGISTER = re.compile(r'\b(?:counter|gauge|histogram)\(\s*"(cg_[a-z0-9_]+)"')
HISTOGRAM = re.compile(r'\bhistogram\(\s*"(cg_[a-z0-9_]+)"')
# A series named in a literal: the bare name, or a name with a label set.
SERIES_LITERAL = re.compile(r'"(cg_[a-z0-9_]+)(?:"|\{)')
READS_GLOBAL_REGISTRY = re.compile(
    r"MetricsRegistry::global\(\)|\bCounterDelta\b|\bCounterSnap\b")
READER_DIRS = ("tests", "bench", "examples", "perfbench")
SOURCE_SUFFIXES = (".cpp", ".h")


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def source_files(root: str, subdir: str):
    for dirpath, _, filenames in os.walk(os.path.join(root, subdir)):
        for name in sorted(filenames):
            if name.endswith(SOURCE_SUFFIXES):
                yield os.path.join(dirpath, name)


def read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def registered_series(root: str):
    names, histograms = set(), set()
    for path in source_files(root, "src"):
        text = read(path)
        names.update(REGISTER.findall(text))
        histograms.update(HISTOGRAM.findall(text))
    return names, histograms


def is_registered(name: str, names, histograms) -> bool:
    if name in names:
        return True
    # Prometheus exposition suffixes of a histogram family.
    for suffix in ("_bucket", "_count", "_sum"):
        if name.endswith(suffix) and name[: -len(suffix)] in histograms:
            return True
    return False


def main() -> int:
    root = repo_root()
    names, histograms = registered_series(root)
    errors = []
    if not names:
        errors.append("no metric series found under src/")

    for subdir in READER_DIRS:
        # perfbench reads every count through CounterSnap (Common.cpp), so
        # all of its files count as registry readers.
        for path in source_files(root, subdir):
            text = read(path)
            if subdir != "perfbench" and not READS_GLOBAL_REGISTRY.search(text):
                continue
            for line_no, line in enumerate(text.splitlines(), 1):
                for name in SERIES_LITERAL.findall(line):
                    if name.startswith("cg_test_"):
                        continue
                    if not is_registered(name, names, histograms):
                        rel = os.path.relpath(path, root)
                        errors.append(f"{rel}:{line_no}: reads '{name}', "
                                      "which no file under src/ registers")

    doc = read(os.path.join(root, "docs", "observability.md"))
    for name in sorted(names):
        if not re.search(r"\b" + re.escape(name) + r"\b", doc):
            errors.append(f"docs/observability.md: registered series "
                          f"'{name}' is not documented")

    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"{len(errors)} metric name problem(s)", file=sys.stderr)
        return 1
    print(f"metric names OK ({len(names)} registered series)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
