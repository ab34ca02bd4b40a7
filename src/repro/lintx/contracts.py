"""Whole-program contract cross-checks (``CON3xx``).

Three conventions span several files, so no single-file rule can see
them break; this module checks them against the live tree:

- **CON305** — every ``CTSOptions`` field is classified for the
  checkpoint options digest: result-affecting (in
  ``checkpoint._RESULT_FIELDS``) xor run plumbing (in
  ``checkpoint._EXECUTION_FIELDS``). A field in neither list would
  silently make checkpoints lie.
- **CON307** — the CI workflow runs the analyzer itself.
- **CON308** — every env-backed :class:`repro.jobs.policy.JobPolicy`
  budget is declared in :data:`JOB_CONTRACTS` with its environment
  variable and a documented ``run-batch`` CLI flag.

``tests/test_lintx_contracts.py`` asserts the shipped tree passes and
that each rule fires on a mutated copy of the tree.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass

from repro.lintx.core import Finding, Project, Rule, SourceFile, register
from repro.lintx.rules_determinism import ImportMap

_OPTIONS_SUFFIX = os.path.join("repro", "core", "options.py")


@dataclass(frozen=True)
class JobContract:
    """An env-backed job-supervision budget and its documented CLI flag."""

    knob: str  # JobPolicy field name
    env: str  # REPRO_* environment default
    cli_flag: str  # documented run-batch flag in cli.py


#: Supervision-budget knobs of the batch job runner
#: (:class:`repro.jobs.policy.JobPolicy`). They govern the parent
#: watchdog, never the tree, and are enforced by CON308 against
#: ``jobs/policy.py``.
JOB_CONTRACTS = (
    JobContract("deadline_s", "REPRO_JOB_DEADLINE", "--job-deadline"),
    JobContract("mem_mb", "REPRO_JOB_MEM_MB", "--job-mem-mb"),
    JobContract("max_retries", "REPRO_JOB_RETRIES", "--job-retries"),
    JobContract(
        "heartbeat_stall_s", "REPRO_HEARTBEAT_STALL", "--heartbeat-stall"
    ),
)


# --------------------------------------------------------------------
# Extraction from the live tree
# --------------------------------------------------------------------


@dataclass
class KnobInfo:
    """One env-backed dataclass field as found in its module."""

    name: str
    env: str
    line: int


def extract_env_knobs(
    source: SourceFile, class_name: str
) -> tuple[dict[str, KnobInfo], list[str], int]:
    """The env-knob registry of one dataclass.

    Returns (env-backed knobs by field name, all field names, class
    line). A knob is a dataclass field whose ``default_factory``
    resolves to a module function reading ``os.environ.get("REPRO_*")``.
    """
    assert source.tree is not None
    imports = ImportMap(source.tree)
    factory_env: dict[str, str] = {}
    for node in source.tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and imports.resolve(sub.func) == "os.environ.get"
                and sub.args
                and isinstance(sub.args[0], ast.Constant)
                and isinstance(sub.args[0].value, str)
                and sub.args[0].value.startswith("REPRO_")
            ):
                factory_env[node.name] = sub.args[0].value
                break

    knobs: dict[str, KnobInfo] = {}
    fields: list[str] = []
    class_line = 1
    for node in source.tree.body:
        if not isinstance(node, ast.ClassDef) or node.name != class_name:
            continue
        class_line = node.lineno
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                stmt.target, ast.Name
            ):
                continue
            name = stmt.target.id
            fields.append(name)
            value = stmt.value
            if not isinstance(value, ast.Call):
                continue
            for kw in value.keywords:
                if (
                    kw.arg == "default_factory"
                    and isinstance(kw.value, ast.Name)
                    and kw.value.id in factory_env
                ):
                    knobs[name] = KnobInfo(
                        name, factory_env[kw.value.id], stmt.lineno
                    )
    return knobs, fields, class_line


def extract_string_tuple(
    source: SourceFile, target_name: str
) -> tuple[list[str], int] | None:
    """A module-level ``NAME = ("a", "b", ...)`` assignment's strings."""
    assert source.tree is not None
    for node in source.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == target_name
            for t in node.targets
        ):
            continue
        if isinstance(node.value, (ast.Tuple, ast.List)):
            values = [
                el.value
                for el in node.value.elts
                if isinstance(el, ast.Constant) and isinstance(el.value, str)
            ]
            return values, node.lineno
    return None


def cli_flags(source: SourceFile) -> dict[str, bool]:
    """Every ``add_argument`` flag string -> has a non-empty help."""
    assert source.tree is not None
    flags: dict[str, bool] = {}
    for node in ast.walk(source.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            continue
        documented = any(
            kw.arg == "help"
            and isinstance(kw.value, ast.Constant)
            and isinstance(kw.value.value, str)
            and kw.value.value.strip()
            for kw in node.keywords
        )
        for arg in node.args:
            if (
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and arg.value.startswith("-")
            ):
                flags[arg.value] = flags.get(arg.value, False) or documented
    return flags


# --------------------------------------------------------------------
# The shared index + rules
# --------------------------------------------------------------------


class ContractIndex:
    """Everything the CON rules cross-check, extracted once per run."""

    def __init__(self, project: Project, options: SourceFile):
        self.project = project
        self.options = options
        __, self.option_fields, self.class_line = extract_env_knobs(
            options, "CTSOptions"
        )
        prefix = options.path[: -len(_OPTIONS_SUFFIX)]
        self.pkg_prefix = prefix  # .../src/ (or whatever holds repro/)
        root = prefix
        if os.path.basename(os.path.normpath(root)) == "src":
            root = os.path.dirname(os.path.normpath(root))
        self.ci_path = os.path.join(root, ".github", "workflows", "ci.yml")
        self.ci_text: str | None = None
        if os.path.exists(self.ci_path):
            with open(self.ci_path, encoding="utf-8") as fh:
                self.ci_text = fh.read()

    def module(self, suffix: str) -> SourceFile | None:
        """A repro module by path suffix, from the scan or from disk."""
        tail = os.path.join("repro", suffix)
        for source in self.project.files:
            if source.path.endswith(tail):
                return source
        path = os.path.join(self.pkg_prefix, tail)
        if os.path.exists(path):
            return SourceFile.load(path)
        return None


def contract_index(project: Project) -> ContractIndex | None:
    """Build (once) the cross-check index; None when the scanned tree
    has no ``repro/core/options.py`` to anchor the contracts to."""
    cached = getattr(project, "_contract_index", False)
    if cached is not False:
        return cached
    options = None
    for source in project.files:
        if source.path.endswith(_OPTIONS_SUFFIX) and source.tree is not None:
            options = source
            break
    index = ContractIndex(project, options) if options is not None else None
    project._contract_index = index  # type: ignore[attr-defined]
    return index


class _ContractRule(Rule):
    def check_project(self, project: Project) -> list[Finding]:
        index = contract_index(project)
        if index is None:
            return []
        return list(self.check_contracts(index))

    def check_contracts(self, index: ContractIndex):
        raise NotImplementedError


@register
class DigestFieldRule(_ContractRule):
    id = "CON305"
    severity = "error"
    summary = (
        "every CTSOptions field must be classified for the checkpoint"
        " digest: result-affecting (_RESULT_FIELDS) xor execution-only"
        " (_EXECUTION_FIELDS)"
    )

    def check_contracts(self, index: ContractIndex):
        checkpoint = index.module(os.path.join("core", "checkpoint.py"))
        if checkpoint is None or checkpoint.tree is None:
            yield self.finding(
                index.options.path,
                index.class_line,
                1,
                "repro/core/checkpoint.py not found: the options-digest"
                " field classification is gone",
            )
            return
        result = extract_string_tuple(checkpoint, "_RESULT_FIELDS")
        execution = extract_string_tuple(checkpoint, "_EXECUTION_FIELDS")
        if result is None:
            yield self.finding(
                checkpoint.path, 1, 1,
                "checkpoint.py has no _RESULT_FIELDS = (...) digest list",
            )
            return
        result_fields, result_line = result
        if execution is None:
            yield self.finding(
                checkpoint.path,
                result_line,
                1,
                "checkpoint.py has no _EXECUTION_FIELDS = (...) list:"
                " digest exclusions must be explicit, not implied",
            )
            execution_fields, execution_line = [], result_line
        else:
            execution_fields, execution_line = execution
        for name in index.option_fields:
            in_result = name in result_fields
            in_execution = name in execution_fields
            if not in_result and not in_execution:
                yield self.finding(
                    checkpoint.path,
                    result_line,
                    1,
                    f"CTSOptions.{name} is in neither _RESULT_FIELDS nor"
                    " _EXECUTION_FIELDS: decide whether it changes the"
                    " synthesized tree (digest) or only how it is"
                    " computed (excluded), and list it",
                )
            elif in_result and in_execution:
                yield self.finding(
                    checkpoint.path,
                    result_line,
                    1,
                    f"CTSOptions.{name} is listed in both _RESULT_FIELDS"
                    " and _EXECUTION_FIELDS",
                )
        for name in result_fields:
            if name not in index.option_fields:
                yield self.finding(
                    checkpoint.path,
                    result_line,
                    1,
                    f"_RESULT_FIELDS lists {name!r} which is not a"
                    " CTSOptions field (stale digest entry)",
                )
        for name in execution_fields:
            if name not in index.option_fields:
                yield self.finding(
                    checkpoint.path,
                    execution_line,
                    1,
                    f"_EXECUTION_FIELDS lists {name!r} which is not a"
                    " CTSOptions field (stale exclusion)",
                )


@register
class JobPolicyContractRule(_ContractRule):
    id = "CON308"
    severity = "error"
    summary = (
        "every REPRO_JOB_*/REPRO_HEARTBEAT_* JobPolicy knob must be"
        " declared in JOB_CONTRACTS with a documented run-batch CLI flag"
    )

    def check_contracts(self, index: ContractIndex):
        policy_mod = index.module(os.path.join("jobs", "policy.py"))
        if policy_mod is None or policy_mod.tree is None:
            if JOB_CONTRACTS:
                yield self.finding(
                    index.options.path,
                    index.class_line,
                    1,
                    "repro/jobs/policy.py not found but JOB_CONTRACTS"
                    " declares job-supervision knobs (stale table)",
                )
            return
        knobs, fields, class_line = extract_env_knobs(policy_mod, "JobPolicy")
        declared = {c.knob: c.env for c in JOB_CONTRACTS}
        for name, knob in sorted(knobs.items()):
            if name not in declared:
                yield self.finding(
                    policy_mod.path,
                    knob.line,
                    1,
                    f"JobPolicy knob {name!r} ({knob.env}) has no"
                    " declared contract: add a JOB_CONTRACTS row in"
                    " repro.lintx.contracts and a documented run-batch"
                    " CLI flag",
                )
            elif declared[name] != knob.env:
                yield self.finding(
                    policy_mod.path,
                    knob.line,
                    1,
                    f"JobPolicy knob {name!r} reads {knob.env} but its"
                    f" contract declares {declared[name]}",
                )
        for knob_name in sorted(declared):
            if knob_name not in fields:
                yield self.finding(
                    policy_mod.path,
                    class_line,
                    1,
                    f"JOB_CONTRACTS declares knob {knob_name!r} but"
                    " JobPolicy has no such field (stale contract row)",
                )
            elif knob_name not in knobs:
                yield self.finding(
                    policy_mod.path,
                    class_line,
                    1,
                    f"JOB_CONTRACTS declares knob {knob_name!r} as"
                    " env-backed but its field has no REPRO_*"
                    " default_factory",
                )
        cli = index.module("cli.py")
        if cli is None or cli.tree is None:
            yield self.finding(
                index.options.path,
                index.class_line,
                1,
                "repro/cli.py not found: job-supervision knobs have no"
                " CLI surface",
            )
            return
        flags = cli_flags(cli)
        for contract in JOB_CONTRACTS:
            if contract.cli_flag not in flags:
                yield self.finding(
                    cli.path,
                    1,
                    1,
                    f"JobPolicy knob {contract.knob!r}: CLI flag"
                    f" {contract.cli_flag} is not defined in cli.py",
                )
            elif not flags[contract.cli_flag]:
                yield self.finding(
                    cli.path,
                    1,
                    1,
                    f"JobPolicy knob {contract.knob!r}: CLI flag"
                    f" {contract.cli_flag} has no help text",
                )


@register
class CIRunsLintRule(_ContractRule):
    id = "CON307"
    severity = "error"
    summary = "the CI workflow must run repro-lint itself"

    def check_contracts(self, index: ContractIndex):
        text = index.ci_text
        if text is None:
            yield self.finding(
                index.options.path,
                index.class_line,
                1,
                f"no CI workflow at {index.ci_path}: the analyzer never"
                " runs on push",
            )
            return
        if "repro.lintx" not in text and "repro lint" not in text:
            yield self.finding(
                index.ci_path,
                1,
                1,
                "the workflow never runs the analyzer (python -m"
                " repro.lintx / repro lint): contract rules are"
                " unenforced on push",
            )
