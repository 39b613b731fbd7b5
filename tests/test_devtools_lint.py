"""Self-tests of the ``repro lint`` static-analysis suite.

Every rule ships with an embedded known-bad and known-good fixture tree;
these tests replay each pair through the engine, exercise the allowlist
marker and ``--explain`` paths, drive the CLI output formats, and finally
assert the shipped ``src/repro`` + ``benchmarks`` tree is clean — the same
invariant the CI ``lint`` job blocks on.
"""

import argparse
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools import ALL_RULES, RULES_BY_ID, LintEngine
from repro.devtools.cli import build_parser, run
from repro.devtools.engine import MARKER_PATTERN

REPO_ROOT = Path(__file__).resolve().parent.parent


def _materialise(tmp_path, fixture):
    """Write a rule's fixture dict to disk; returns the written paths."""
    paths = []
    for relative, source in fixture.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        paths.append(target)
    return paths


def _lint_fixture(tmp_path, fixture, select):
    engine = LintEngine(ALL_RULES, select=select)
    violations, _ = engine.lint_paths(_materialise(tmp_path, fixture), root=tmp_path)
    return violations


# --------------------------------------------------------------------------- #
# Per-rule fixtures
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("rule_id", sorted(RULES_BY_ID))
def test_bad_fixture_is_flagged(tmp_path, rule_id):
    """Each rule's known-bad fixture produces at least one violation of it."""
    rule = RULES_BY_ID[rule_id]
    violations = _lint_fixture(tmp_path, rule.bad_fixture, select=[rule_id])
    assert violations, f"{rule_id} bad fixture was not flagged"
    assert {violation.rule for violation in violations} == {rule_id}
    for violation in violations:
        assert violation.line > 0
        assert violation.path in rule.bad_fixture


@pytest.mark.parametrize("rule_id", sorted(RULES_BY_ID))
def test_good_fixture_is_clean(tmp_path, rule_id):
    """Each rule's known-good fixture passes its own rule."""
    rule = RULES_BY_ID[rule_id]
    violations = _lint_fixture(tmp_path, rule.good_fixture, select=[rule_id])
    assert violations == [], [violation.format() for violation in violations]


def test_bad_fixtures_flag_nothing_else(tmp_path):
    """A rule's bad fixture demonstrates *that* rule, not unrelated noise."""
    for rule in ALL_RULES:
        violations = _lint_fixture(tmp_path / rule.id, rule.bad_fixture, select=None)
        extra = {v.rule for v in violations} - {rule.id}
        assert not extra, f"{rule.id} bad fixture also trips {sorted(extra)}"


def test_registry_discipline_sees_call_form_registrations(tmp_path):
    """R004: a class its module registers by calling ``register`` is a backend.

    The call may hand over the class itself or ``functools.partial`` of it
    (one class serving several names); a function registered the same way is
    not a backend, so calling it elsewhere stays clean.
    """
    backends = (
        "import functools\n"
        "from functools import partial\n"
        "\n"
        "class Registry:\n"
        "    def register(self, name):\n"
        "        return lambda entry: entry\n"
        "\n"
        "OPTIMIZERS = Registry()\n"
        "WORKLOADS = Registry()\n"
        "\n"
        "class DirectBackend:\n"
        "    pass\n"
        "\n"
        "class PolicyBackend:\n"
        "    def __init__(self, name):\n"
        "        self.name = name\n"
        "\n"
        "class AliasedBackend(PolicyBackend):\n"
        "    pass\n"
        "\n"
        "def paper_graph():\n"
        "    return None\n"
        "\n"
        "OPTIMIZERS.register('direct')(DirectBackend)\n"
        "for policy in ('first', 'second'):\n"
        "    OPTIMIZERS.register(policy)(functools.partial(PolicyBackend, policy))\n"
        "OPTIMIZERS.register('aliased')(partial(AliasedBackend, 'aliased'))\n"
        "WORKLOADS.register('paper')(paper_graph)\n"
    )
    consumer = (
        "from repro.scenarios.backends import (\n"
        "    AliasedBackend, DirectBackend, PolicyBackend, paper_graph,\n"
        ")\n"
        "\n"
        "def run():\n"
        "    paper_graph()\n"
        "    return DirectBackend(), PolicyBackend('first'), AliasedBackend('aliased')\n"
    )
    violations = _lint_fixture(
        tmp_path,
        {"src/repro/scenarios/backends.py": backends, "src/repro/consumer.py": consumer},
        select=["R004"],
    )
    assert {violation.path for violation in violations} == {"src/repro/consumer.py"}
    flagged = sorted(violation.message.split("`")[1] for violation in violations)
    assert flagged == ["AliasedBackend", "DirectBackend", "PolicyBackend"]


# --------------------------------------------------------------------------- #
# Allowlist markers
# --------------------------------------------------------------------------- #

def test_allow_marker_suppresses_rule(tmp_path):
    source = (
        "import numpy as np\n"
        "\n"
        "def sample():\n"
        "    return np.random.default_rng()"
        "  # repro-lint: allow R001 — demo entropy\n"
    )
    violations = _lint_fixture(
        tmp_path, {"src/repro/marked.py": source}, select=["R001"]
    )
    assert violations == []


def test_allow_marker_only_suppresses_named_rule(tmp_path):
    source = (
        "import numpy as np\n"
        "\n"
        "def sample():\n"
        "    return np.random.default_rng()"
        "  # repro-lint: allow R004 — wrong rule named\n"
    )
    violations = _lint_fixture(
        tmp_path, {"src/repro/marked.py": source}, select=["R001"]
    )
    assert [violation.rule for violation in violations] == ["R001"]


def test_bare_marker_is_a_hygiene_violation(tmp_path):
    source = "VALUE = 1  # repro-lint: allow R001\n"
    violations = _lint_fixture(
        tmp_path, {"src/repro/marked.py": source}, select=["R000"]
    )
    assert [violation.rule for violation in violations] == ["R000"]
    assert "no reason" in violations[0].message


def test_marker_inside_string_literal_is_inert(tmp_path):
    source = 'DOC = "# repro-lint: allow R001"\n'
    violations = _lint_fixture(
        tmp_path, {"src/repro/marked.py": source}, select=["R000"]
    )
    assert violations == []


def test_marker_pattern_accepts_separator_variants():
    for separator in ("—", "--", "-", ":"):
        match = MARKER_PATTERN.search(
            f"# repro-lint: allow R001, R003 {separator} because reasons"
        )
        assert match is not None
        assert match.group("reason") == "because reasons"


# --------------------------------------------------------------------------- #
# Engine behaviour
# --------------------------------------------------------------------------- #

def test_syntax_error_reported_as_violation(tmp_path):
    violations = _lint_fixture(
        tmp_path, {"src/repro/broken.py": "def oops(:\n"}, select=None
    )
    assert [violation.rule for violation in violations] == ["R000"]
    assert "does not parse" in violations[0].message


def test_unknown_select_rejected():
    with pytest.raises(ValueError, match="R999"):
        LintEngine(ALL_RULES, select=["R999"])


def test_violation_format_is_path_line_rule():
    from repro.devtools import Violation

    formatted = Violation("src/x.py", 7, "R001", "boom").format()
    assert formatted == "src/x.py:7 R001 boom"


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #

def _run_cli(argv, tmp_path=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    stream = io.StringIO()
    code = run(args, stream=stream)
    return code, stream.getvalue()


def test_cli_explain_known_rule():
    code, output = _run_cli(["--explain", "R002"])
    assert code == 0
    assert "R002" in output and "Flagged:" in output and "Accepted:" in output


def test_cli_explain_unknown_rule_exits_2():
    code, _ = _run_cli(["--explain", "R999"])
    assert code == 2


def test_cli_list_rules():
    code, output = _run_cli(["--list-rules"])
    assert code == 0
    for rule in ALL_RULES:
        assert rule.id in output


def test_cli_json_output(tmp_path):
    _materialise(tmp_path, RULES_BY_ID["R001"].bad_fixture)
    code, output = _run_cli([str(tmp_path), "--json", "--select", "R001"])
    assert code == 1
    document = json.loads(output)
    assert document["violation_count"] >= 1
    assert {item["rule"] for item in document["violations"]} == {"R001"}
    assert set(document["violations"][0]) == {"path", "line", "rule", "message"}


def test_cli_csv_output(tmp_path):
    _materialise(tmp_path, RULES_BY_ID["R001"].bad_fixture)
    code, output = _run_cli([str(tmp_path), "--csv", "--select", "R001"])
    assert code == 1
    lines = output.strip().splitlines()
    assert lines[0] == "path,line,rule,message"
    assert any("R001" in line for line in lines[1:])


def test_cli_missing_path_exits_2(tmp_path):
    code, _ = _run_cli([str(tmp_path / "does-not-exist")])
    assert code == 2


def test_repro_cli_exposes_lint_subcommand():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--list-rules"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert "R001" in result.stdout


# --------------------------------------------------------------------------- #
# The shipped tree is clean
# --------------------------------------------------------------------------- #

def test_shipped_tree_is_clean():
    engine = LintEngine(ALL_RULES)
    violations, checked = engine.lint_paths(
        [REPO_ROOT / "src" / "repro", REPO_ROOT / "benchmarks"], root=REPO_ROOT
    )
    assert checked > 50
    assert violations == [], "\n".join(
        violation.format() for violation in violations
    )


def test_injected_violation_fails_whole_tree(tmp_path):
    """The gate actually gates: one bad file flips the tree to failing."""
    shadow = tmp_path / "src" / "repro"
    shadow.mkdir(parents=True)
    (shadow / "canary.py").write_text(
        "import numpy as np\n\nRNG = np.random.default_rng()\n"
    )
    engine = LintEngine(ALL_RULES)
    violations, _ = engine.lint_paths(
        [REPO_ROOT / "src" / "repro", tmp_path / "src" / "repro"], root=tmp_path
    )
    assert any(
        violation.rule == "R001" and violation.path.endswith("canary.py")
        for violation in violations
    )
