"""The project-invariant rule catalogue of ``repro lint``.

Each rule guards one invariant that the reproduction's correctness story
depends on.  Rules carry their own minimal bad/good fixture trees: the
fixtures are printed by ``--explain`` and replayed by the self-tests, so a
rule cannot silently rot.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .engine import Project, Rule, SourceFile, Violation

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "MarkerHygieneRule",
    "DeterminismRule",
    "SerializationDriftRule",
    "StoreWriteDisciplineRule",
    "RegistryDisciplineRule",
    "FingerprintPurityRule",
    "TimingDisciplineRule",
]


# --------------------------------------------------------------------------- #
# Shared AST helpers
# --------------------------------------------------------------------------- #

def _function_defs(tree: ast.AST) -> Iterable[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node  # type: ignore[misc]


def _direct_body(node: ast.AST) -> Iterable[ast.AST]:
    """Walk ``node`` without descending into nested function/class scopes."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(child))


def _constant_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts = [
            value.value
            for value in node.values
            if isinstance(value, ast.Constant) and isinstance(value.value, str)
        ]
        return "".join(parts) if parts else None
    return None


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name == "dataclass":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> List[Tuple[str, int]]:
    """Public ``(name, lineno)`` fields declared directly on a dataclass."""
    fields: List[Tuple[str, int]] = []
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign):
            continue
        if not isinstance(statement.target, ast.Name):
            continue
        if statement.target.id.startswith("_"):
            continue
        if "ClassVar" in ast.unparse(statement.annotation):
            continue
        fields.append((statement.target.id, statement.lineno))
    return fields


def _methods(node: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {
        statement.name: statement
        for statement in node.body
        if isinstance(statement, ast.FunctionDef)
    }


# --------------------------------------------------------------------------- #
# R000 — allowlist marker hygiene
# --------------------------------------------------------------------------- #

class MarkerHygieneRule(Rule):
    id = "R000"
    title = "allowlist markers must state a reason"
    explanation = """\
Every `# repro-lint: allow R00x` marker disables a reproducibility check on
its line, so the marker itself must document why the flagged behaviour is
intentional.  A bare marker is indistinguishable from a silenced bug."""
    bad_fixture = {
        "src/repro/bad_marker.py": (
            "import numpy as np\n"
            "\n"
            "def sample():\n"
            "    return np.random.default_rng()  # repro-lint: allow R001\n"
        ),
    }
    good_fixture = {
        "src/repro/good_marker.py": (
            "import numpy as np\n"
            "\n"
            "def sample():\n"
            "    return np.random.default_rng()"
            "  # repro-lint: allow R001 — demo-only entropy source\n"
        ),
    }

    def check(self, file: SourceFile, project: Project) -> Iterable[Violation]:
        for lineno, rules in file.bare_markers:
            yield Violation(
                path=file.relative,
                line=lineno,
                rule=self.id,
                message=(
                    f"allow marker for {rules} has no reason; "
                    "write `# repro-lint: allow R00x — why`"
                ),
            )


# --------------------------------------------------------------------------- #
# R001 — determinism
# --------------------------------------------------------------------------- #

#: numpy legacy global-state samplers that bypass the seeded Generator API.
_NUMPY_LEGACY = {
    "rand", "randn", "randint", "random", "random_sample", "ranf", "sample",
    "seed", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "beta", "binomial", "poisson", "exponential", "bytes",
}


class DeterminismRule(Rule):
    id = "R001"
    title = "stochastic code must be seeded"
    explanation = """\
Warm starts are keyed by scenario fingerprints, so the same scenario must
produce bit-identical results on every run.  Inside `src/repro` that bans
unseeded entropy: `np.random.default_rng()` without a seed, the legacy
global-state `np.random.*` samplers, and the stdlib `random` module.
Stochastic code must accept a seed or an `np.random.Generator`."""
    bad_fixture = {
        "src/repro/sampling.py": (
            "import random\n"
            "import numpy as np\n"
            "\n"
            "def jitter(values):\n"
            "    rng = np.random.default_rng()\n"
            "    return [v + rng.normal() + random.random() for v in values]\n"
            "\n"
            "def pick(values):\n"
            "    return values[np.random.randint(len(values))]\n"
        ),
    }
    good_fixture = {
        "src/repro/sampling.py": (
            "import numpy as np\n"
            "\n"
            "def jitter(values, seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return [v + rng.normal() for v in values]\n"
            "\n"
            "def pick(values, rng):\n"
            "    return values[int(rng.integers(len(values)))]\n"
        ),
    }

    def check(self, file: SourceFile, project: Project) -> Iterable[Violation]:
        if not file.module.startswith("repro"):
            return
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            name = file.resolve_call(node.func)
            if name is None:
                continue
            if name == "numpy.random.default_rng" and not node.args:
                yield file.violation(
                    node,
                    self.id,
                    "unseeded np.random.default_rng(); pass a seed or Generator",
                )
            elif name.startswith("numpy.random.") and (
                name.rsplit(".", 1)[1] in _NUMPY_LEGACY
            ):
                yield file.violation(
                    node,
                    self.id,
                    f"legacy global-state sampler `{name}`; "
                    "use a seeded np.random.Generator",
                )
            elif name.startswith("random."):
                yield file.violation(
                    node,
                    self.id,
                    f"stdlib `{name}` uses unseeded module-level state; "
                    "use a seeded np.random.Generator",
                )


# --------------------------------------------------------------------------- #
# R002 — serialization drift
# --------------------------------------------------------------------------- #

#: to_dict escape hatches that serialise every field mechanically.
_FULL_COVERAGE_HINTS = ("asdict", "__dataclass_fields__", "fields(self)")


class SerializationDriftRule(Rule):
    id = "R002"
    title = "to_dict/from_dict field coverage must stay symmetric"
    explanation = """\
Results round-trip through the content-addressed store as dictionaries, so
a dataclass whose `to_dict` forgets a field, or whose `from_dict` consumes
keys `to_dict` never emits, silently drops data on the warm path.  For every
dataclass with `to_dict`, each public field must be serialised (or the class
must use `asdict`/`__dataclass_fields__`); when `from_dict` exists, the key
sets of both sides must match; `comparable_dict` may only exclude keys that
`to_dict` actually emits."""
    bad_fixture = {
        "src/repro/record.py": (
            "from dataclasses import dataclass\n"
            "\n"
            "@dataclass(frozen=True)\n"
            "class Record:\n"
            "    name: str\n"
            "    runtime_seconds: float\n"
            "\n"
            "    def to_dict(self):\n"
            "        return {\"name\": self.name}\n"
            "\n"
            "    @classmethod\n"
            "    def from_dict(cls, payload):\n"
            "        return cls(\n"
            "            name=payload[\"name\"],\n"
            "            runtime_seconds=payload.get(\"runtime\", 0.0),\n"
            "        )\n"
        ),
    }
    good_fixture = {
        "src/repro/record.py": (
            "from dataclasses import dataclass\n"
            "\n"
            "@dataclass(frozen=True)\n"
            "class Record:\n"
            "    name: str\n"
            "    runtime_seconds: float\n"
            "\n"
            "    def to_dict(self):\n"
            "        return {\n"
            "            \"name\": self.name,\n"
            "            \"runtime_seconds\": self.runtime_seconds,\n"
            "        }\n"
            "\n"
            "    @classmethod\n"
            "    def from_dict(cls, payload):\n"
            "        return cls(\n"
            "            name=payload[\"name\"],\n"
            "            runtime_seconds=payload.get(\"runtime_seconds\", 0.0),\n"
            "        )\n"
            "\n"
            "    def comparable_dict(self):\n"
            "        payload = self.to_dict()\n"
            "        payload.pop(\"runtime_seconds\", None)\n"
            "        return payload\n"
        ),
    }

    def check(self, file: SourceFile, project: Project) -> Iterable[Violation]:
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = _methods(node)
            to_dict = methods.get("to_dict")
            if to_dict is None:
                continue
            yield from self._check_field_coverage(file, node, to_dict)
            emitted = _emitted_keys(to_dict)
            from_dict = methods.get("from_dict")
            if from_dict is not None and emitted is not None:
                yield from self._check_symmetry(
                    file, node, to_dict, from_dict, emitted
                )
            comparable = methods.get("comparable_dict")
            if comparable is not None and emitted is not None:
                yield from self._check_comparable(file, node, comparable, emitted)

    def _check_field_coverage(
        self, file: SourceFile, node: ast.ClassDef, to_dict: ast.FunctionDef
    ) -> Iterable[Violation]:
        if not _is_dataclass(node):
            return
        body_text = ast.unparse(to_dict)
        if any(hint in body_text for hint in _FULL_COVERAGE_HINTS):
            return
        referenced = {
            child.attr
            for child in ast.walk(to_dict)
            if isinstance(child, ast.Attribute)
            and isinstance(child.value, ast.Name)
            and child.value.id == "self"
        }
        for field, lineno in _dataclass_fields(node):
            if field not in referenced:
                yield Violation(
                    path=file.relative,
                    line=lineno,
                    rule=self.id,
                    message=(
                        f"{node.name}.{field} is never serialised by to_dict; "
                        "serialise it or exclude it with an allow marker"
                    ),
                )

    def _check_symmetry(
        self,
        file: SourceFile,
        node: ast.ClassDef,
        to_dict: ast.FunctionDef,
        from_dict: ast.FunctionDef,
        emitted: Set[str],
    ) -> Iterable[Violation]:
        consumed = _consumed_keys(from_dict)
        if consumed is None:
            return
        for key in sorted(emitted - consumed):
            yield Violation(
                path=file.relative,
                line=from_dict.lineno,
                rule=self.id,
                message=(
                    f"{node.name}.from_dict never consumes key '{key}' "
                    "emitted by to_dict"
                ),
            )
        for key in sorted(consumed - emitted):
            yield Violation(
                path=file.relative,
                line=to_dict.lineno,
                rule=self.id,
                message=(
                    f"{node.name}.from_dict consumes key '{key}' "
                    "that to_dict never emits"
                ),
            )

    def _check_comparable(
        self,
        file: SourceFile,
        node: ast.ClassDef,
        comparable: ast.FunctionDef,
        emitted: Set[str],
    ) -> Iterable[Violation]:
        for child in ast.walk(comparable):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "pop"
                and child.args
            ):
                key = _constant_str(child.args[0])
                if key is not None and key not in emitted:
                    yield file.violation(
                        child,
                        self.id,
                        f"{node.name}.comparable_dict excludes key '{key}' "
                        "that to_dict never emits",
                    )


def _emitted_keys(to_dict: ast.FunctionDef) -> Optional[Set[str]]:
    """Top-level keys of the dictionary returned by ``to_dict``.

    ``None`` when the keys cannot be determined statically (no literal dict,
    ``**`` expansion, ``dict(...)`` construction, ...) — symmetry checks are
    skipped rather than guessed in that case.
    """
    returned_names: Set[str] = set()
    keys: Set[str] = set()
    saw_literal = False
    for child in _direct_body(to_dict):
        if isinstance(child, ast.Return) and child.value is not None:
            if isinstance(child.value, ast.Dict):
                literal = _dict_literal_keys(child.value)
                if literal is None:
                    return None
                keys.update(literal)
                saw_literal = True
            elif isinstance(child.value, ast.Name):
                returned_names.add(child.value.id)
            else:
                return None
    for child in _direct_body(to_dict):
        if not isinstance(child, ast.Assign):
            continue
        for target in child.targets:
            if isinstance(target, ast.Name) and target.id in returned_names:
                if not isinstance(child.value, ast.Dict):
                    return None
                literal = _dict_literal_keys(child.value)
                if literal is None:
                    return None
                keys.update(literal)
                saw_literal = True
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in returned_names
            ):
                key = _constant_str(target.slice)
                if key is None:
                    return None
                keys.add(key)
    return keys if saw_literal else None


def _dict_literal_keys(node: ast.Dict) -> Optional[Set[str]]:
    keys: Set[str] = set()
    for key in node.keys:
        if key is None:  # ``**other`` expansion — indeterminable
            return None
        value = _constant_str(key)
        if value is None:
            return None
        keys.add(value)
    return keys


def _consumed_keys(from_dict: ast.FunctionDef) -> Optional[Set[str]]:
    """Keys ``from_dict`` reads off its payload parameter, or ``None``."""
    params = [arg.arg for arg in from_dict.args.args if arg.arg not in ("cls", "self")]
    if not params:
        return None
    payload = params[0]
    keys: Set[str] = set()
    for child in ast.walk(from_dict):
        if isinstance(child, ast.keyword) and child.arg is None:
            if isinstance(child.value, ast.Name) and child.value.id == payload:
                return None  # ``cls(**payload)`` consumes everything
        if isinstance(child, ast.Subscript):
            if isinstance(child.value, ast.Name) and child.value.id == payload:
                key = _constant_str(child.slice)
                if key is not None:
                    keys.add(key)
        elif isinstance(child, ast.Compare):
            if (
                len(child.ops) == 1
                and isinstance(child.ops[0], (ast.In, ast.NotIn))
                and isinstance(child.comparators[0], ast.Name)
                and child.comparators[0].id == payload
            ):
                key = _constant_str(child.left)
                if key is not None:
                    keys.add(key)
        elif isinstance(child, ast.Call):
            func = child.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == payload
                and func.attr in ("get", "pop", "setdefault")
                and child.args
            ):
                key = _constant_str(child.args[0])
                if key is not None:
                    keys.add(key)
            elif any(
                isinstance(arg, ast.Name) and arg.id == payload
                for arg in child.args
            ):
                # Helper call such as ``_read(payload, "rows", 4)``: the
                # first string literal names the key the helper reads.
                for arg in child.args:
                    key = _constant_str(arg)
                    if key is not None:
                        keys.add(key)
                        break
    return keys


# --------------------------------------------------------------------------- #
# R003 — store write discipline
# --------------------------------------------------------------------------- #

_WRITE_SQL = re.compile(r"\b(INSERT|UPDATE|DELETE|REPLACE)\b", re.IGNORECASE)
_EXECUTE_NAMES = {"execute", "executemany", "executescript", "_execute"}
_CLOCK_CALLS = {"time.time", "time.monotonic"}


class StoreWriteDisciplineRule(Rule):
    id = "R003"
    title = "store writes need a transaction; one clock read per transition"
    explanation = """\
Inside `repro.store` (the storage modules; the worker/server service loops
are out of scope), every INSERT/UPDATE/DELETE must run lexically inside a
`with ...connection...:` transaction block so a crash can never leave a
half-applied write, and each state-machine transition must read the clock
exactly once so the row's timestamps describe a single instant."""
    bad_fixture = {
        "src/repro/store/bad_store.py": (
            "import sqlite3\n"
            "import time\n"
            "\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._connection = sqlite3.connect(\":memory:\")\n"
            "\n"
            "    def record(self, key):\n"
            "        self._connection.execute(\n"
            "            \"INSERT INTO results (key) VALUES (?)\", (key,)\n"
            "        )\n"
            "\n"
            "    def lease(self, job):\n"
            "        job.leased_at = time.time()\n"
            "        job.updated_at = time.time()\n"
        ),
    }
    good_fixture = {
        "src/repro/store/good_store.py": (
            "import sqlite3\n"
            "import time\n"
            "\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._connection = sqlite3.connect(\":memory:\")\n"
            "\n"
            "    def record(self, key):\n"
            "        with self._connection:\n"
            "            self._connection.execute(\n"
            "                \"INSERT INTO results (key) VALUES (?)\", (key,)\n"
            "            )\n"
            "\n"
            "    def lease(self, job):\n"
            "        now = time.time()\n"
            "        job.leased_at = now\n"
            "        job.updated_at = now\n"
        ),
    }

    def _in_scope(self, file: SourceFile) -> bool:
        return file.module.startswith("repro.store") and not file.module.endswith(
            (".worker", ".server")
        )

    def check(self, file: SourceFile, project: Project) -> Iterable[Violation]:
        if not self._in_scope(file):
            return []
        assert file.tree is not None
        violations: List[Violation] = []
        self._walk_transactions(file, file.tree, False, violations)
        for function in _function_defs(file.tree):
            clock_calls = [
                child
                for child in _direct_body(function)
                if isinstance(child, ast.Call)
                and file.resolve_call(child.func) in _CLOCK_CALLS
            ]
            clock_calls.sort(key=lambda call: (call.lineno, call.col_offset))
            for call in clock_calls[1:]:
                violations.append(
                    file.violation(
                        call,
                        self.id,
                        f"{function.name} reads the clock more than once; "
                        "bind a single `now = time.time()` per transition",
                    )
                )
        return violations

    def _walk_transactions(
        self,
        file: SourceFile,
        node: ast.AST,
        in_transaction: bool,
        violations: List[Violation],
    ) -> None:
        if isinstance(node, ast.With):
            in_transaction = in_transaction or any(
                "connection" in ast.unparse(item.context_expr)
                for item in node.items
            )
        if isinstance(node, ast.Call) and not in_transaction:
            func = node.func
            attr = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if attr in _EXECUTE_NAMES and node.args:
                sql = _constant_str(node.args[0])
                if sql is not None and _WRITE_SQL.search(sql):
                    verb = _WRITE_SQL.search(sql).group(1).upper()  # type: ignore[union-attr]
                    violations.append(
                        file.violation(
                            node,
                            self.id,
                            f"{verb} executed outside the connection's "
                            "transaction context manager",
                        )
                    )
        for child in ast.iter_child_nodes(node):
            self._walk_transactions(file, child, in_transaction, violations)


# --------------------------------------------------------------------------- #
# R004 — registry discipline
# --------------------------------------------------------------------------- #

#: Alternate-constructor classmethods that count as direct construction.
_CONSTRUCTOR_CLASSMETHODS = {"grid"}


class RegistryDisciplineRule(Rule):
    id = "R004"
    title = "backends are constructed through their registry"
    explanation = """\
Optimizer, workload, mapping and topology backends are looked up by name in
their registries so scenarios stay declarative and fingerprints stable.
Constructing a backend class directly (``Nsga2Backend(...)``,
``RingOnocArchitecture.grid(...)``) outside its defining module, the
registry modules, or tests bypasses that indirection — new call sites must
go through ``build_topology``/``create_optimizer``/etc."""
    bad_fixture = {
        "src/repro/scenarios/backends.py": (
            "class Registry:\n"
            "    def __init__(self):\n"
            "        self._entries = {}\n"
            "\n"
            "    def register(self, name):\n"
            "        def decorate(cls):\n"
            "            self._entries[name] = cls\n"
            "            return cls\n"
            "        return decorate\n"
            "\n"
            "OPTIMIZERS = Registry()\n"
            "\n"
            "@OPTIMIZERS.register(\"nsga2\")\n"
            "class Nsga2Backend:\n"
            "    pass\n"
        ),
        "src/repro/consumer.py": (
            "from repro.scenarios.backends import Nsga2Backend\n"
            "\n"
            "def run():\n"
            "    return Nsga2Backend()\n"
        ),
    }
    good_fixture = {
        "src/repro/scenarios/backends.py": (
            "class Registry:\n"
            "    def __init__(self):\n"
            "        self._entries = {}\n"
            "\n"
            "    def register(self, name):\n"
            "        def decorate(cls):\n"
            "            self._entries[name] = cls\n"
            "            return cls\n"
            "        return decorate\n"
            "\n"
            "    def get(self, name):\n"
            "        return self._entries[name]\n"
            "\n"
            "OPTIMIZERS = Registry()\n"
            "\n"
            "@OPTIMIZERS.register(\"nsga2\")\n"
            "class Nsga2Backend:\n"
            "    pass\n"
            "\n"
            "def create_optimizer(name):\n"
            "    return OPTIMIZERS.get(name)()\n"
        ),
        "src/repro/consumer.py": (
            "from repro.scenarios.backends import create_optimizer\n"
            "\n"
            "def run():\n"
            "    return create_optimizer(\"nsga2\")\n"
        ),
    }

    def check(self, file: SourceFile, project: Project) -> Iterable[Violation]:
        backends = project.backend_classes()
        if not backends:
            return
        if file.relative.rsplit("/", 1)[-1] in ("registry.py", "backends.py"):
            return
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name: Optional[str] = None
            if isinstance(func, ast.Name):
                name = func.id
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.attr in _CONSTRUCTOR_CLASSMETHODS
            ):
                name = func.value.id
            if name is None or name not in backends:
                continue
            defining = backends[name]
            if file.module == defining:
                continue
            yield file.violation(
                node,
                self.id,
                f"direct construction of backend `{name}` "
                f"(registered in {defining}); go through its registry",
            )


# --------------------------------------------------------------------------- #
# R005 — fingerprint purity
# --------------------------------------------------------------------------- #

#: Function/method names that feed scenario documents and fingerprints.
_PURE_ENTRY_POINTS = {
    "fingerprint",
    "to_dict",
    "comparable_dict",
    "canonical_json",
    "scenario_document",
    "_scenario_document",
}

#: Dotted call names whose results vary across runs or hosts.
_IMPURE_CALLS = {
    "time.time",
    "time.monotonic",
    "time.perf_counter",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "os.getenv",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
}

_IMPURE_PREFIXES = ("numpy.random.", "random.", "secrets.")


class FingerprintPurityRule(Rule):
    id = "R005"
    title = "fingerprint construction must be pure"
    explanation = """\
Scenario documents and their fingerprints key the content-addressed store:
two runs of the same scenario must hash identically, on any host, at any
time.  Any clock read, `datetime.now`, `os.environ` lookup, or RNG that is
reachable from `fingerprint`/`to_dict`/`comparable_dict`/scenario-document
construction (through same-module helper calls) breaks that key."""
    bad_fixture = {
        "src/repro/scenarios/doc.py": (
            "import hashlib\n"
            "import json\n"
            "import time\n"
            "\n"
            "class Scenario:\n"
            "    name = \"baseline\"\n"
            "\n"
            "    def to_dict(self):\n"
            "        return {\"name\": self.name, \"stamp\": self._stamp()}\n"
            "\n"
            "    def _stamp(self):\n"
            "        return time.time_ns()\n"
            "\n"
            "    def fingerprint(self):\n"
            "        payload = json.dumps(self.to_dict(), sort_keys=True)\n"
            "        return hashlib.sha256(payload.encode()).hexdigest()[:16]\n"
        ),
    }
    good_fixture = {
        "src/repro/scenarios/doc.py": (
            "import hashlib\n"
            "import json\n"
            "\n"
            "class Scenario:\n"
            "    name = \"baseline\"\n"
            "    seed = 2017\n"
            "\n"
            "    def to_dict(self):\n"
            "        return {\"name\": self.name, \"seed\": self.seed}\n"
            "\n"
            "    def fingerprint(self):\n"
            "        payload = json.dumps(self.to_dict(), sort_keys=True)\n"
            "        return hashlib.sha256(payload.encode()).hexdigest()[:16]\n"
        ),
    }

    def check(self, file: SourceFile, project: Project) -> Iterable[Violation]:
        if not file.module.startswith("repro"):
            return
        assert file.tree is not None
        module_functions: Dict[str, ast.FunctionDef] = {
            node.name: node
            for node in file.tree.body
            if isinstance(node, ast.FunctionDef)
        }
        reported: Set[Tuple[int, int]] = set()
        for class_node in [None] + [
            node for node in ast.walk(file.tree) if isinstance(node, ast.ClassDef)
        ]:
            functions = (
                module_functions if class_node is None else _methods(class_node)
            )
            for name, function in functions.items():
                if name not in _PURE_ENTRY_POINTS:
                    continue
                owner = name if class_node is None else f"{class_node.name}.{name}"
                yield from self._check_entry(
                    file, owner, function, functions, module_functions, reported
                )

    def _check_entry(
        self,
        file: SourceFile,
        owner: str,
        entry: ast.FunctionDef,
        siblings: Dict[str, ast.FunctionDef],
        module_functions: Dict[str, ast.FunctionDef],
        reported: Set[Tuple[int, int]],
    ) -> Iterable[Violation]:
        queue: List[ast.FunctionDef] = [entry]
        visited: Set[int] = set()
        while queue:
            function = queue.pop()
            if id(function) in visited:
                continue
            visited.add(id(function))
            for child in ast.walk(function):
                if isinstance(child, ast.Call):
                    callee = self._local_callee(
                        child, siblings, module_functions
                    )
                    if callee is not None:
                        queue.append(callee)
                        continue
                    name = file.resolve_call(child.func)
                    if name is not None and self._is_impure(name):
                        key = (child.lineno, child.col_offset)
                        if key not in reported:
                            reported.add(key)
                            yield file.violation(
                                child,
                                self.id,
                                f"impure call `{name}` reachable from {owner}",
                            )
                elif isinstance(child, ast.Attribute):
                    name = file.resolve_call(child)
                    if name == "os.environ":
                        key = (child.lineno, child.col_offset)
                        if key not in reported:
                            reported.add(key)
                            yield file.violation(
                                child,
                                self.id,
                                f"os.environ read reachable from {owner}",
                            )

    @staticmethod
    def _local_callee(
        call: ast.Call,
        siblings: Dict[str, ast.FunctionDef],
        module_functions: Dict[str, ast.FunctionDef],
    ) -> Optional[ast.FunctionDef]:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
        ):
            return siblings.get(func.attr)
        if isinstance(func, ast.Name):
            return module_functions.get(func.id)
        return None

    @staticmethod
    def _is_impure(name: str) -> bool:
        return name in _IMPURE_CALLS or name.startswith(_IMPURE_PREFIXES)


# --------------------------------------------------------------------------- #
# R006 — timing discipline
# --------------------------------------------------------------------------- #

#: Clock reads R006 bans outside the allowed modules.  `time.monotonic` is
#: deliberately not listed: it is a deadline/poll clock, not a measurement.
_TIMING_CLOCK_CALLS = {"time.time", "time.perf_counter"}


class TimingDisciplineRule(Rule):
    id = "R006"
    title = "durations are measured through repro.telemetry"
    explanation = """\
Hand-rolled `time.time()` / `time.perf_counter()` timing produces numbers
the telemetry layer cannot see: they never reach the metrics registry, the
span trace, or `/metrics`, so the reported phase totals drift away from what
was actually measured.  Inside `src/repro` every duration must go through
`repro.telemetry` (`Stopwatch`, `timed_span`, `registry.timer(...)`); only
the telemetry package itself and the store's transaction clocks — where
`time.time()` stamps persisted rows, not durations — read clocks directly.
A genuinely non-timing wall-clock read (e.g. an age computed against stored
timestamps) is allowlisted with `# repro-lint: allow R006 — reason`."""
    bad_fixture = {
        "src/repro/profiling.py": (
            "import time\n"
            "\n"
            "def measure(fn):\n"
            "    started = time.perf_counter()\n"
            "    fn()\n"
            "    return time.perf_counter() - started\n"
        ),
    }
    good_fixture = {
        "src/repro/profiling.py": (
            "from repro.telemetry import Stopwatch, get_registry\n"
            "\n"
            "def measure(fn):\n"
            "    with Stopwatch() as watch:\n"
            "        fn()\n"
            "    get_registry().histogram(\"repro_profiling_seconds\").observe(\n"
            "        watch.elapsed\n"
            "    )\n"
            "    return watch.elapsed\n"
        ),
    }

    def _in_scope(self, file: SourceFile) -> bool:
        if not file.module.startswith("repro"):
            return False
        if file.module.startswith("repro.telemetry"):
            # The telemetry package is the timing implementation.
            return False
        if file.module.startswith("repro.store") and not file.module.endswith(
            (".worker", ".server")
        ):
            # R003's domain: storage-module `time.time()` reads stamp
            # persisted rows (one clock read per transition), they don't
            # measure durations.  The worker/server service loops stay in.
            return False
        return True

    def check(self, file: SourceFile, project: Project) -> Iterable[Violation]:
        if not self._in_scope(file):
            return
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            name = file.resolve_call(node.func)
            if name in _TIMING_CLOCK_CALLS:
                yield file.violation(
                    node,
                    self.id,
                    f"bare `{name}()` outside repro.telemetry; measure with "
                    "Stopwatch/timed_span (or allowlist a non-timing read)",
                )


ALL_RULES: Sequence[Rule] = (
    MarkerHygieneRule(),
    DeterminismRule(),
    SerializationDriftRule(),
    StoreWriteDisciplineRule(),
    RegistryDisciplineRule(),
    FingerprintPurityRule(),
    TimingDisciplineRule(),
)

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}
