"""Contract cross-checker tests: self-check + mutation checks.

Two layers:

- **self-check** — the shipped tree satisfies every contract: no
  ``CTSOptions`` default reads the environment, every job-policy knob
  is declared with a documented flag, every option is classified for
  the checkpoint digest, and ``repro lint src/`` is clean at zero
  findings;
- **mutation checks** — a copy of the live tree with one contract
  broken (digest entry, job knob, run-batch flag, CI lint step, or a
  reintroduced ``time.time()``) must produce a non-zero exit naming the
  expected rule at the expected file.

Each mutated copy starts from a real, passing tree, so a rule that
fires does so for exactly the injected reason.
"""

from __future__ import annotations

import ast
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lintx import contracts as C
from repro.lintx.core import SourceFile, run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
CI_YML = REPO_ROOT / ".github" / "workflows" / "ci.yml"


def copy_tree(target: Path) -> Path:
    """A minimal live-tree copy: every .py under src plus ci.yml."""
    for py in sorted(SRC.rglob("*.py")):
        dest = target / py.relative_to(REPO_ROOT)
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(py, dest)
    ci = target / ".github" / "workflows" / "ci.yml"
    ci.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(CI_YML, ci)
    return target


@pytest.fixture()
def tree(tmp_path):
    return copy_tree(tmp_path / "tree")


def edit(tree: Path, rel: str, old: str, new: str, count: int = 0) -> None:
    path = tree / rel
    text = path.read_text()
    assert old in text, f"{rel}: fixture drifted, {old!r} not found"
    path.write_text(text.replace(old, new) if count == 0 else text.replace(old, new, count))


def lint(tree: Path):
    return run_lint([str(tree / "src")])


def findings_for(result, rule: str):
    return [f for f in result.findings if f.rule == rule]


# ---------------------------------------------------------------------
# Self-check: the shipped tree satisfies every contract
# ---------------------------------------------------------------------


class TestSelfCheck:
    def test_shipped_tree_is_clean(self):
        result = run_lint([str(SRC)])
        assert result.findings == [], "\n".join(
            f.render() for f in result.findings
        )
        assert result.exit_code("warning") == 0

    def test_no_options_default_reads_the_environment(self):
        options = SourceFile.load(str(SRC / "repro" / "core" / "options.py"))
        knobs, fields, _ = C.extract_env_knobs(options, "CTSOptions")
        assert knobs == {}
        assert len(fields) == 27

    def test_every_env_knob_is_contracted(self):
        """Only the job policy reads the environment, and each of its
        knobs has a contract row."""
        knobs = {}
        for rel, class_name in (
            ("core/options.py", "CTSOptions"),
            ("jobs/policy.py", "JobPolicy"),
        ):
            source = SourceFile.load(str(SRC / "repro" / rel))
            found, __, __ = C.extract_env_knobs(source, class_name)
            knobs.update({k: info.env for k, info in found.items()})
        assert knobs == {c.knob: c.env for c in C.JOB_CONTRACTS}

    def test_every_job_policy_knob_is_contracted(self):
        policy = SourceFile.load(str(SRC / "repro" / "jobs" / "policy.py"))
        knobs, fields, _ = C.extract_env_knobs(policy, "JobPolicy")
        declared = {c.knob for c in C.JOB_CONTRACTS}
        assert set(knobs) == declared
        for contract in C.JOB_CONTRACTS:
            assert knobs[contract.knob].env == contract.env
        assert declared <= set(fields)

    def test_every_job_contract_flag_is_documented(self):
        cli = SourceFile.load(str(SRC / "repro" / "cli.py"))
        flags = C.cli_flags(cli)
        for contract in C.JOB_CONTRACTS:
            assert flags.get(contract.cli_flag), (
                f"{contract.cli_flag} missing or undocumented in cli.py"
            )

    def test_fault_sites_registered_and_consulted(self):
        """Every registered fault site is consulted with a literal name
        somewhere under ``src/``, and nothing consults an unregistered
        one."""
        fault = SourceFile.load(str(SRC / "repro" / "evalx" / "faultinject.py"))
        sites, __ = C.extract_string_tuple(fault, "SITES")
        consulted = set()
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "consult"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                ):
                    consulted.add(node.args[0].value)
        assert sorted(sites) == sorted(consulted)

    def test_digest_partition_matches_live_options(self):
        from dataclasses import fields as dc_fields

        from repro.core.checkpoint import _EXECUTION_FIELDS, _RESULT_FIELDS
        from repro.core.options import CTSOptions

        names = {f.name for f in dc_fields(CTSOptions)}
        assert set(_RESULT_FIELDS) | set(_EXECUTION_FIELDS) == names
        assert not set(_RESULT_FIELDS) & set(_EXECUTION_FIELDS)

    def test_options_digest_refuses_incomplete_partition(self, monkeypatch):
        from repro.core import checkpoint
        from repro.core.options import CTSOptions

        monkeypatch.setattr(
            checkpoint, "_RESULT_FIELDS", checkpoint._RESULT_FIELDS[:-1]
        )
        with pytest.raises(ValueError, match="seed"):
            checkpoint.options_digest(CTSOptions())


# ---------------------------------------------------------------------
# Mutation checks: each broken contract fires its rule at the right spot
# ---------------------------------------------------------------------


class TestMutations:
    def test_clean_copy_passes(self, tree):
        result = lint(tree)
        assert result.findings == [], "\n".join(
            f.render() for f in result.findings
        )

    def test_dropping_a_digest_field_fires_con305(self, tree):
        edit(
            tree,
            "src/repro/core/checkpoint.py",
            '    "seed",\n',
            "",
            count=1,
        )
        (finding,) = findings_for(lint(tree), "CON305")
        assert finding.path.endswith("checkpoint.py")
        assert "CTSOptions.seed" in finding.message

    def test_reintroducing_time_time_in_cts_fires_det101(self, tree):
        edit(
            tree,
            "src/repro/core/cts.py",
            "time.perf_counter()",
            "time.time()",
            count=1,
        )
        findings = findings_for(lint(tree), "DET101")
        assert findings and findings[0].path.endswith("cts.py")

    def test_new_unclassified_option_fires_con305(self, tree):
        edit(
            tree,
            "src/repro/core/options.py",
            "    seed: int = 0\n",
            "    batch_profile: bool = True\n    seed: int = 0\n",
        )
        (finding,) = findings_for(lint(tree), "CON305")
        assert finding.path.endswith("checkpoint.py")
        assert "batch_profile" in finding.message

    def test_new_job_policy_knob_without_contract_fires_con308(self, tree):
        edit(
            tree,
            "src/repro/jobs/policy.py",
            "def _default_deadline_s()",
            (
                'def _default_cpu_budget() -> float:\n'
                '    """Honor ``REPRO_JOB_CPU``."""\n'
                '    return float(os.environ.get("REPRO_JOB_CPU", "0") or 0.0)\n'
                "\n\n"
                "def _default_deadline_s()"
            ),
        )
        edit(
            tree,
            "src/repro/jobs/policy.py",
            "    deadline_s: float = field(default_factory=_default_deadline_s)",
            "    cpu_budget_s: float = field(default_factory=_default_cpu_budget)\n"
            "    deadline_s: float = field(default_factory=_default_deadline_s)",
        )
        con308 = findings_for(lint(tree), "CON308")
        assert con308 and "cpu_budget_s" in con308[0].message
        assert con308[0].path.endswith("policy.py")

    def test_renaming_a_run_batch_flag_fires_con308(self, tree):
        edit(
            tree,
            "src/repro/cli.py",
            '"--job-deadline"',
            '"--job-deadline-x"',
        )
        findings = findings_for(lint(tree), "CON308")
        assert findings and findings[0].path.endswith("cli.py")
        assert any("--job-deadline" in f.message for f in findings)

    def test_removing_the_lint_step_fires_con307(self, tree):
        ci = tree / ".github" / "workflows" / "ci.yml"
        ci.write_text(
            ci.read_text()
            .replace("python -m repro.lintx src --fail-on warning", "true")
            .replace(
                "python -m repro.lintx tests benchmarks"
                " --no-contracts --fail-on never",
                "true",
            )
        )
        (finding,) = findings_for(lint(tree), "CON307")
        assert finding.path.endswith("ci.yml")


# ---------------------------------------------------------------------
# CLI entry points: exit codes on the real and mutated trees
# ---------------------------------------------------------------------


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro.lintx", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )


class TestCLI:
    def test_module_entry_clean_tree_exits_zero(self):
        proc = run_cli(["src"], cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 errors" in proc.stdout

    def test_module_entry_mutated_tree_exits_nonzero_naming_rule(
        self, tree
    ):
        edit(
            tree,
            "src/repro/core/cts.py",
            "time.perf_counter()",
            "time.time()",
            count=1,
        )
        proc = run_cli(["src"], cwd=tree)
        assert proc.returncode == 1
        assert "DET101" in proc.stdout
        assert "cts.py" in proc.stdout

    def test_repro_lint_subcommand_and_json(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src", "--json"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        import json

        payload = json.loads(proc.stdout)
        assert payload["findings"] == []

    def test_fail_on_never_reports_without_failing(self, tree):
        edit(
            tree,
            "src/repro/core/cts.py",
            "time.perf_counter()",
            "time.time()",
            count=1,
        )
        proc = run_cli(["src", "--fail-on", "never"], cwd=tree)
        assert proc.returncode == 0
        assert "DET101" in proc.stdout

    def test_list_rules(self):
        proc = run_cli(["--list-rules"], cwd=REPO_ROOT)
        assert proc.returncode == 0
        for rule_id in ("DET101", "CON305", "CON307", "CON308"):
            assert rule_id in proc.stdout
        for rule_id in ("PIK201", "CON301", "CON302", "CON303", "CON304", "CON306"):
            assert rule_id not in proc.stdout
