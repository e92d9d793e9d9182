"""Examples: every script must at least import cleanly, and the fast
ones must run end-to-end.

Import rot in example code is the most common way reproduction repos
decay; compiling each script catches renamed APIs immediately, while
keeping the test suite fast (full example runs take minutes and are
exercised manually / by the benches).
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def load_module(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(
        f"example_{name[:-3]}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExampleHygiene:
    def test_expected_examples_present(self):
        expected = {
            "quickstart.py",
            "covert_channel.py",
            "montgomery_spy.py",
            "jpeg_spy.py",
            "sgx_attack.py",
            "pht_reverse_engineering.py",
            "aslr_bypass.py",
            "mitigated_victim.py",
            "pin_crack.py",
            "hyperthread_covert.py",
            "branch_poisoning.py",
            "btb_vs_branchscope.py",
            "scheduled_attack.py",
            "multi_branch_spy.py",
        }
        assert expected.issubset(set(ALL_EXAMPLES))

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_imports_cleanly(self, name):
        module = load_module(name)
        assert hasattr(module, "main"), f"{name} must define main()"

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_has_module_docstring(self, name):
        module = load_module(name)
        assert module.__doc__ and "Run:" in module.__doc__


class TestFastExamplesRun:
    def test_branch_poisoning_main(self, capsys):
        load_module("branch_poisoning.py").main()
        out = capsys.readouterr().out
        assert "poisoned" in out

    def test_quickstart_main(self, capsys):
        load_module("quickstart.py").main()
        out = capsys.readouterr().out
        assert "bits correct" in out
