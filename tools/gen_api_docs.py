#!/usr/bin/env python
"""Generate per-package API reference pages under ``docs/api/``.

Stdlib-only (runs in CI without installing anything).  For each target
package this imports every module, collects the public surface —
module docstring, public classes with their public methods, public
functions — and renders one deterministic markdown page per package
plus an ``index.md``.  Pages carry signatures (via
:func:`inspect.signature`) and the first paragraph of each docstring,
so the reference stays honest: it is derived from the code, never
hand-edited.

Determinism matters because CI re-generates the pages and fails on
drift: no timestamps, stable sort orders, and only docstring/signature
content that changes when the code changes.

Usage::

    PYTHONPATH=src python tools/gen_api_docs.py          # (re)write docs/api
    PYTHONPATH=src python tools/gen_api_docs.py --check  # fail on drift
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs" / "api"

#: Packages with a documented public API, in index order.  Each entry is
#: (package name under ``repro.``, one-line blurb for the index page).
PACKAGES: list[tuple[str, str]] = [
    ("sim", "the simulation engine and machine configs"),
    ("prefetchers", "the prefetcher zoo: paper set, related work, "
                    "learned family"),
    ("exec", "grid planning, keyed caching, schedulers, telemetry"),
    ("check", "engine and prefetcher oracles, differential harnesses, "
              "fuzzing, invariants"),
    ("serve", "simulation-as-a-service HTTP API"),
    ("campaign", "journaled, resumable parameter sweeps"),
    ("ingest", "external-trace frontend: ChampSim/CSV decoding, "
               "loop-marker recovery, the ext: workload store"),
]


def _first_paragraph(obj: object) -> str:
    """The first docstring paragraph, collapsed to one line."""
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    paragraph = doc.split("\n\n", 1)[0]
    return " ".join(paragraph.split())


def _signature(obj: object) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _public_members(module: object) -> tuple[list, list, list]:
    """(classes, functions, constants) defined in *module* itself."""
    classes, functions, constants = [], [], []
    for name in sorted(vars(module)):
        if name.startswith("_"):
            continue
        member = getattr(module, name)
        defined_here = getattr(member, "__module__", None) == module.__name__
        if inspect.isclass(member) and defined_here:
            classes.append((name, member))
        elif (inspect.isfunction(member) and defined_here):
            functions.append((name, member))
        elif (not inspect.ismodule(member)
              and not callable(member)
              and name.isupper()):
            constants.append((name, member))
    return classes, functions, constants


def _render_class(name: str, cls: type) -> list[str]:
    lines = [f"### `{name}{_signature(cls)}`", ""]
    summary = _first_paragraph(cls)
    if summary:
        lines += [summary, ""]
    for method_name in sorted(vars(cls)):
        if method_name.startswith("_"):
            continue
        method = inspect.getattr_static(cls, method_name)
        if isinstance(method, (staticmethod, classmethod)):
            method = method.__func__
        if not inspect.isfunction(method):
            continue
        lines.append(f"- `.{method_name}{_signature(method)}` — "
                     f"{_first_paragraph(method) or 'undocumented'}")
    if lines[-1] != "":
        lines.append("")
    return lines


def _render_module(module_name: str) -> list[str]:
    module = importlib.import_module(module_name)
    classes, functions, constants = _public_members(module)
    if not (classes or functions or constants):
        return []
    lines = [f"## `{module_name}`", ""]
    summary = _first_paragraph(module)
    if summary:
        lines += [summary, ""]
    for name, value in constants:
        if isinstance(value, (set, frozenset)):
            # Set reprs are hash-ordered, which varies per process;
            # sort so regeneration is deterministic.
            rendered = "{" + ", ".join(
                repr(item) for item in sorted(value, key=repr)) + "}"
        else:
            rendered = repr(value)
        if len(rendered) > 80:
            rendered = rendered[:77] + "..."
        lines.append(f"- `{name} = {rendered}`")
    if constants:
        lines.append("")
    for name, func in functions:
        lines.append(f"- `{name}{_signature(func)}` — "
                     f"{_first_paragraph(func) or 'undocumented'}")
    if functions:
        lines.append("")
    for name, cls in classes:
        lines += _render_class(name, cls)
    return lines


def _iter_module_names(package_name: str) -> list[str]:
    package = importlib.import_module(package_name)
    names = [package_name]
    for info in pkgutil.iter_modules(package.__path__):
        if info.name.startswith("_"):
            continue
        full_name = f"{package_name}.{info.name}"
        if info.ispkg:
            names.extend(_iter_module_names(full_name))
        else:
            names.append(full_name)
    return names


def render_package(short_name: str, blurb: str) -> str:
    package_name = f"repro.{short_name}"
    lines = [
        f"# `{package_name}` — {blurb}",
        "",
        "<!-- generated by tools/gen_api_docs.py; do not edit by hand -->",
        "",
    ]
    for module_name in _iter_module_names(package_name):
        lines += _render_module(module_name)
    return "\n".join(lines).rstrip() + "\n"


def render_index() -> str:
    lines = [
        "# API reference",
        "",
        "<!-- generated by tools/gen_api_docs.py; do not edit by hand -->",
        "",
        "Generated per-package reference pages.  Regenerate with",
        "`PYTHONPATH=src python tools/gen_api_docs.py`; CI fails when",
        "these pages drift from the code (`--check`).",
        "",
    ]
    for short_name, blurb in PACKAGES:
        lines.append(f"- [`repro.{short_name}`]({short_name}.md) — {blurb}")
    return "\n".join(lines) + "\n"


def generate() -> dict[Path, str]:
    pages = {DOCS_DIR / "index.md": render_index()}
    for short_name, blurb in PACKAGES:
        pages[DOCS_DIR / f"{short_name}.md"] = render_package(
            short_name, blurb)
    return pages


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="verify the committed pages match the code; write nothing")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO_ROOT / "src"))
    pages = generate()

    if args.check:
        stale = []
        for path, content in sorted(pages.items()):
            on_disk = path.read_text() if path.exists() else None
            if on_disk != content:
                stale.append(path.relative_to(REPO_ROOT))
        for path in stale:
            print(f"stale: {path} (re-run tools/gen_api_docs.py)",
                  file=sys.stderr)
        return 1 if stale else 0

    DOCS_DIR.mkdir(parents=True, exist_ok=True)
    for path, content in sorted(pages.items()):
        path.write_text(content)
        print(f"wrote {path.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
