"""AST lint engine enforcing the project's reproducibility invariants.

The repository promises bit-identical warm starts keyed by scenario
fingerprints and 0-ulp kernel equivalence.  Every invariant behind those
promises — seeded-only randomness, ``to_dict``/``from_dict`` symmetry,
write-through transaction discipline in the SQLite store, registry-mediated
backend construction, fingerprint purity — used to be enforced only by
convention and after-the-fact tests.  This engine checks them *statically*,
at diff time, the way a type checker would:

* :class:`SourceFile` parses one file, records its import aliases and the
  inline ``# repro-lint: allow R00x — reason`` suppression markers.
* :class:`Project` holds every file of a run so rules can do cross-file
  analysis (e.g. "where is this backend class registered?").
* :class:`Rule` subclasses (see :mod:`repro.devtools.rules`) walk the ASTs
  and yield :class:`Violation` records.
* :class:`LintEngine` drives the walk, applies the allowlist markers and the
  rule selection, and returns the surviving violations sorted by location.

``python -m repro.devtools`` / ``repro lint`` front this engine on the
command line and exit non-zero on any violation, which is what makes the CI
``lint`` job a blocking gate.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "MARKER_PATTERN",
    "LintEngine",
    "Project",
    "Rule",
    "SourceFile",
    "Violation",
]

#: Inline suppression marker: ``# repro-lint: allow R003 — reason why``.
#: The rule list is mandatory; the reason is checked by rule R000 so every
#: suppression documents *why* the flagged behaviour is intentional.
MARKER_PATTERN = re.compile(
    r"#\s*repro-lint:\s*allow\s+(?P<rules>R\d{3}(?:\s*,\s*R\d{3})*)"
    r"(?:\s*(?:—|--|-|:)\s*(?P<reason>\S.*))?"
)


@dataclass(frozen=True, order=True)
class Violation:
    """One rule violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        """The canonical one-line report: ``path:line RULE message``."""
        return f"{self.path}:{self.line} {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON/CSV-compatible dictionary of the violation."""
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


class SourceFile:
    """One parsed Python file plus the lint-relevant metadata of its text."""

    def __init__(self, path: Path, relative: str, text: str) -> None:
        self.path = path
        #: Root-relative POSIX path used in reports.
        self.relative = relative
        self.text = text
        #: Dotted module guess (``repro.store.sqlite``) — rules use it to
        #: scope themselves to packages; files outside ``repro`` keep their
        #: bare stem.
        self.module = _module_name(relative)
        self.tree: Optional[ast.Module]
        self.parse_error: Optional[Violation] = None
        try:
            self.tree = ast.parse(text)
        except SyntaxError as error:
            self.tree = None
            self.parse_error = Violation(
                path=relative,
                line=error.lineno or 1,
                rule="R000",
                message=f"file does not parse: {error.msg}",
            )
        #: line number -> rule ids suppressed on that line.
        self.allowed: Dict[int, Set[str]] = {}
        #: Markers that carry no reason (rule R000 reports them).
        self.bare_markers: List[Tuple[int, str]] = []
        for lineno, comment in _comments(text):
            match = MARKER_PATTERN.search(comment)
            if match is None:
                continue
            rules = {item.strip() for item in match.group("rules").split(",")}
            self.allowed.setdefault(lineno, set()).update(rules)
            if not match.group("reason"):
                self.bare_markers.append((lineno, ", ".join(sorted(rules))))
        #: alias -> dotted module for every ``import``/``from`` in the file
        #: (``np`` -> ``numpy``, ``rnd`` -> ``random``, ``randint`` ->
        #: ``random.randint`` ...), so rules match real modules, not names.
        self.imports: Dict[str, str] = {}
        if self.tree is not None:
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        self.imports[alias.asname or alias.name.split(".")[0]] = (
                            alias.name
                        )
                elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                    for alias in node.names:
                        self.imports[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}"
                        )

    def violation(self, node: ast.AST, rule: str, message: str) -> Violation:
        """A violation of ``rule`` anchored at ``node``."""
        return Violation(
            path=self.relative,
            line=getattr(node, "lineno", 1),
            rule=rule,
            message=message,
        )

    def resolve_call(self, func: ast.AST) -> Optional[str]:
        """Dotted, import-resolved name of a call target, or ``None``.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        when the file imported ``numpy as np``; attribute chains rooted in
        anything but a plain name (``obj().x``, ``self.rng.random``) resolve
        to ``None`` so rules never misfire on instance attributes.
        """
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        root = self.imports.get(parts[0])
        if root is not None:
            parts[0] = root
        return ".".join(parts)

    def is_allowed(self, lineno: int, rule: str) -> bool:
        """True when a marker on ``lineno`` suppresses ``rule``."""
        return rule in self.allowed.get(lineno, ())


def _comments(text: str) -> List[Tuple[int, str]]:
    """``(lineno, comment_text)`` for every real comment token in ``text``.

    Tokenizing (rather than regex-scanning raw lines) keeps marker text inside
    string literals — such as the rule fixtures in this very package — from
    being treated as live suppression markers.
    """
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        return [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []


def _module_name(relative: str) -> str:
    """Best-effort dotted module name from a root-relative path."""
    parts = list(Path(relative).with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class Project:
    """Every file of one lint run, for cross-file rules."""

    def __init__(self, files: Sequence[SourceFile]) -> None:
        self.files = list(files)
        self._backend_classes: Optional[Dict[str, str]] = None

    def backend_classes(self) -> Dict[str, str]:
        """Registered backend classes: class name -> defining module.

        A class counts as a backend when a registry's ``register`` call
        decorates it (``@OPTIMIZERS.register("nsga2")``), when its module
        registers it by calling one (``OPTIMIZERS.register(name)(Backend)``,
        or with ``functools.partial(Backend, ...)`` when one class serves
        several names), or when it is a topology architecture (defined under
        ``repro.topology`` with the ``OnocArchitecture`` naming convention —
        topologies register factory *functions*, which are not backends).
        """
        if self._backend_classes is None:
            classes: Dict[str, str] = {}
            for file in self.files:
                if file.tree is None:
                    continue
                registered = {_registered_entry(file, node) for node in ast.walk(file.tree)}
                for node in ast.walk(file.tree):
                    if isinstance(node, ast.ClassDef) and (
                        node.name in registered
                        or any(_is_register_call(item) for item in node.decorator_list)
                        or (
                            file.module.startswith("repro.topology")
                            and node.name.endswith("OnocArchitecture")
                        )
                    ):
                        classes.setdefault(node.name, file.module)
            self._backend_classes = classes
        return self._backend_classes


def _is_register_call(node: ast.AST) -> bool:
    """True for a registry's ``<registry>.register(...)`` call."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "register"
    )


def _registered_entry(file: SourceFile, node: ast.AST) -> Optional[str]:
    """``entry`` of a ``<registry>.register(...)(entry)`` call, unwrapping
    ``functools.partial(entry, ...)``; ``None`` for any other node."""
    if not (isinstance(node, ast.Call) and _is_register_call(node.func) and node.args):
        return None
    entry = node.args[0]
    if (
        isinstance(entry, ast.Call)
        and file.resolve_call(entry.func) == "functools.partial"
        and entry.args
    ):
        entry = entry.args[0]
    return entry.id if isinstance(entry, ast.Name) else None


class Rule:
    """Base class of one lint rule.

    Subclasses set the class attributes and implement :meth:`check`; the
    ``bad_fixture``/``good_fixture`` sources double as ``--explain`` examples
    and as the self-test corpus in ``tests/test_devtools_lint.py``, so every
    rule ships regression-protected.
    """

    #: Stable identifier (``R001`` ...), used in reports and allow markers.
    id: str = "R000"
    #: One-line summary for the rule catalogue.
    title: str = ""
    #: Multi-line rationale printed by ``--explain``.
    explanation: str = ""
    #: Root-relative path -> source of a minimal *violating* fixture tree.
    bad_fixture: Dict[str, str] = {}
    #: Root-relative path -> source of the corrected fixture tree.
    good_fixture: Dict[str, str] = {}

    def check(self, file: SourceFile, project: Project) -> Iterable[Violation]:
        """Yield every violation of this rule in ``file``."""
        raise NotImplementedError

    def explain(self) -> str:
        """The full ``--explain`` text of the rule."""
        sections = [f"{self.id} — {self.title}", "", self.explanation.strip()]
        if self.bad_fixture:
            sections += ["", "Flagged:", ""]
            sections += _indented_sources(self.bad_fixture)
        if self.good_fixture:
            sections += ["", "Accepted:", ""]
            sections += _indented_sources(self.good_fixture)
        return "\n".join(sections)


def _indented_sources(fixture: Dict[str, str]) -> List[str]:
    lines: List[str] = []
    for path, source in fixture.items():
        lines.append(f"  # {path}")
        lines.extend(f"  {line}" for line in source.strip().splitlines())
        lines.append("")
    return lines[:-1]


class LintEngine:
    """Drives a set of rules over a file tree and filters the results."""

    def __init__(
        self, rules: Sequence[Rule], select: Optional[Iterable[str]] = None
    ) -> None:
        known = {rule.id for rule in rules}
        if select is not None:
            unknown = sorted(set(select) - known)
            if unknown:
                raise ValueError(
                    f"unknown rule id(s) {', '.join(unknown)}; "
                    f"available: {', '.join(sorted(known))}"
                )
        self.rules = [
            rule for rule in rules if select is None or rule.id in set(select)
        ]

    # ------------------------------------------------------------- collection
    @staticmethod
    def collect(paths: Sequence[Path], root: Optional[Path] = None) -> List[SourceFile]:
        """Parse every ``.py`` file under ``paths`` (files or directories)."""
        root = (root or Path.cwd()).resolve()
        seen: Set[Path] = set()
        files: List[SourceFile] = []
        for path in paths:
            path = Path(path)
            candidates: Iterator[Path]
            if path.is_dir():
                candidates = iter(sorted(path.rglob("*.py")))
            else:
                candidates = iter([path])
            for candidate in candidates:
                resolved = candidate.resolve()
                if resolved in seen or "__pycache__" in candidate.parts:
                    continue
                seen.add(resolved)
                try:
                    relative = resolved.relative_to(root).as_posix()
                except ValueError:
                    relative = candidate.as_posix()
                files.append(
                    SourceFile(resolved, relative, resolved.read_text(encoding="utf-8"))
                )
        return files

    # ------------------------------------------------------------------- run
    def run(self, files: Sequence[SourceFile]) -> List[Violation]:
        """Every unsuppressed violation across ``files``, sorted by location."""
        project = Project(files)
        found: Set[Violation] = set()
        for file in files:
            if file.parse_error is not None:
                found.add(file.parse_error)
                continue
            for rule in self.rules:
                for violation in rule.check(file, project):
                    if not file.is_allowed(violation.line, violation.rule):
                        found.add(violation)
        return sorted(found)

    def lint_paths(
        self, paths: Sequence[Path], root: Optional[Path] = None
    ) -> Tuple[List[Violation], int]:
        """Lint ``paths``; returns ``(violations, files_checked)``."""
        files = self.collect(paths, root=root)
        return self.run(files), len(files)
