#!/usr/bin/env python3
"""Fixture tests for the contract linter.

Each rule has a minimal violating fixture and a waived twin under
fixtures/ (a miniature src/ tree, so path-scoped rules apply exactly as
they do on the real repository). The tests assert the contract the CI
gate relies on:

  * every violation fixture trips EXACTLY its rule (exit 1),
  * every waived twin is completely clean (exit 0),
  * every rule in the table has a violation fixture (a new rule without
    fixture coverage fails here),
  * the whole fixture tree aggregates to exactly the expected findings.

Run directly (python3 test_contract_lint.py) or via ctest
(contract_lint_fixtures).
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
LINTER = os.path.join(HERE, "contract_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")

sys.path.insert(0, HERE)
from rules import RULES  # noqa: E402

FINDING_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[\w-]+)\]")

# fixture path (relative to fixtures/) -> the one rule it must trip.
VIOLATIONS = {
    "src/demo/nondet_source_violation.cpp": "nondet-source",
    "src/demo/nondet_source_clock_alias.cpp": "nondet-source",
    "src/demo/rng_seed_provenance_violation.cpp": "rng-seed-provenance",
    "src/demo/unordered_iter_violation.cpp": "unordered-iter",
    "src/demo/parallel_accum_violation.cpp": "parallel-accum",
    "src/demo/bad_waiver_violation.cpp": "bad-waiver",
    "src/reliable/fp_contract_violation.cpp": "fp-contract",
    "src/reliable/fp_contract_flag_violation.cpp": "fp-contract-flag",
    "src/nn/infer_const_violation.hpp": "infer-const",
    "src/nn/nn_mutable_violation.hpp": "nn-mutable",
}

WAIVED = [
    "src/demo/nondet_source_waived.cpp",
    "src/demo/rng_seed_provenance_waived.cpp",
    "src/demo/unordered_iter_waived.cpp",
    "src/demo/parallel_accum_waived.cpp",
    "src/reliable/fp_contract_waived.cpp",
    "src/reliable/fp_contract_flag_waived.cpp",
    "src/nn/infer_const_waived.hpp",
    "src/nn/nn_mutable_waived.hpp",
]

# Fixtures that only make sense against a compilation database entry:
# the synthetic compile_commands.json below compiles them WITHOUT
# -ffp-contract=off, which is the violation.
NEEDS_COMPILE_COMMANDS = {
    "src/reliable/fp_contract_flag_violation.cpp",
    "src/reliable/fp_contract_flag_waived.cpp",
}


def synthetic_compile_commands(tmpdir: str) -> str:
    entries = []
    for rel in sorted(NEEDS_COMPILE_COMMANDS):
        entries.append({
            "directory": FIXTURES,
            "command": f"c++ -std=c++20 -O2 -c {rel}",
            "file": os.path.join(FIXTURES, rel),
        })
    path = os.path.join(tmpdir, "compile_commands.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(entries, f)
    return path


def run_linter(args):
    proc = subprocess.run(
        [sys.executable, LINTER] + args,
        capture_output=True, text=True, cwd=FIXTURES,
    )
    findings = []
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            findings.append((m.group("path"), int(m.group("line")),
                             m.group("rule")))
    return proc.returncode, findings, proc


class ContractLintFixtures(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmpdir = tempfile.TemporaryDirectory()
        cls.compile_commands = synthetic_compile_commands(cls.tmpdir.name)

    @classmethod
    def tearDownClass(cls):
        cls.tmpdir.cleanup()

    def lint_file(self, rel):
        args = ["--root", FIXTURES]
        if rel in NEEDS_COMPILE_COMMANDS:
            args += ["--compile-commands", self.compile_commands]
        args.append(rel)
        return run_linter(args)

    def test_every_rule_has_a_violation_fixture(self):
        covered = set(VIOLATIONS.values())
        for rule in RULES:
            self.assertIn(
                rule["name"], covered,
                f"rule '{rule['name']}' has no violation fixture — add "
                "one under tools/contract_lint/fixtures/",
            )

    def test_violation_fixtures_trip_exactly_their_rule(self):
        for rel, expected_rule in VIOLATIONS.items():
            with self.subTest(fixture=rel):
                code, findings, proc = self.lint_file(rel)
                self.assertEqual(
                    code, 1,
                    f"{rel}: expected findings (exit 1), got exit {code}\n"
                    f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}",
                )
                tripped = {rule for (_p, _l, rule) in findings}
                self.assertEqual(
                    tripped, {expected_rule},
                    f"{rel}: expected only '{expected_rule}', got "
                    f"{sorted(tripped)}\n{proc.stdout}",
                )
                self.assertGreaterEqual(len(findings), 1)

    def test_waived_fixtures_are_clean(self):
        for rel in WAIVED:
            with self.subTest(fixture=rel):
                code, findings, proc = self.lint_file(rel)
                self.assertEqual(
                    code, 0,
                    f"{rel}: waivers must suppress every finding, got:\n"
                    f"{proc.stdout}",
                )
                self.assertEqual(findings, [])

    def test_full_fixture_tree_aggregates_expected_rules(self):
        code, findings, proc = run_linter(
            ["--root", FIXTURES,
             "--compile-commands", self.compile_commands])
        self.assertEqual(code, 1, proc.stdout + proc.stderr)
        tripped_by_file = {}
        for path, _line, rule in findings:
            tripped_by_file.setdefault(path, set()).add(rule)
        expected = {rel: {rule} for rel, rule in VIOLATIONS.items()}
        self.assertEqual(tripped_by_file, expected)

    def test_rule_subset_selection(self):
        code, findings, _ = run_linter(
            ["--root", FIXTURES, "--rules", "nondet-source",
             "src/demo/nondet_source_violation.cpp",
             "src/demo/unordered_iter_violation.cpp"])
        self.assertEqual(code, 1)
        self.assertTrue(all(rule == "nondet-source"
                            for (_p, _l, rule) in findings))
        # bad-waiver stays active regardless of subset (it guards the
        # waiver mechanism itself), but these fixtures carry none.

    def test_unknown_rule_is_a_usage_error(self):
        code, _findings, _ = run_linter(
            ["--root", FIXTURES, "--rules", "no-such-rule",
             "src/demo/nondet_source_violation.cpp"])
        self.assertEqual(code, 2)

    def test_list_rules_prints_catalogue(self):
        proc = subprocess.run(
            [sys.executable, LINTER, "--list-rules"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0)
        for rule in RULES:
            self.assertIn(rule["name"], proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
