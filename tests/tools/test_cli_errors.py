"""Predictable CLI misuse reads as one friendly line, exit code 2.

Nonexistent files, unknown application/algorithm names, and malformed
fault specs must never traceback: every console tool wraps its main in
:func:`repro.tools.errors.friendly_errors` and prints
``prog: error: <one line>`` to stderr.
"""

import pytest

from repro.experiments import cli as experiments_cli
from repro.tools import place_cli, simulate_cli, workload_cli
from repro.tools.errors import CliError, friendly_errors


class TestDecorator:
    def test_cli_error_becomes_exit_2(self, capsys):
        @friendly_errors("demo")
        def main(argv=None):
            raise CliError("something you typed is wrong")

        assert main([]) == 2
        err = capsys.readouterr().err
        assert err == "demo: error: something you typed is wrong\n"

    def test_key_error_quotes_are_stripped(self, capsys):
        @friendly_errors("demo")
        def main(argv=None):
            raise KeyError("unknown application 'Nope'")

        assert main([]) == 2
        assert "demo: error: unknown application 'Nope'\n" == capsys.readouterr().err

    def test_keyboard_interrupt_becomes_130(self, capsys):
        @friendly_errors("demo")
        def main(argv=None):
            raise KeyboardInterrupt

        assert main([]) == 130
        assert "demo: interrupted" in capsys.readouterr().err

    def test_unexpected_exceptions_still_traceback(self):
        @friendly_errors("demo")
        def main(argv=None):
            raise RuntimeError("a genuine bug")

        with pytest.raises(RuntimeError):
            main([])


class TestTools:
    def test_place_missing_traces_file(self, tmp_path, capsys):
        absent = tmp_path / "absent.npz"
        code = place_cli.main(["--traces", str(absent),
                               "--out", str(tmp_path / "map.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-place: error:")
        assert "no such file" in err
        assert "Traceback" not in err

    def test_place_unknown_algorithm(self, tmp_path, capsys):
        traces = tmp_path / "t.npz"
        workload_cli.main(["--app", "Water", "--scale", "0.001",
                           "--out", str(traces)])
        capsys.readouterr()  # drain the workload tool's own output
        code = place_cli.main(["--traces", str(traces), "--algorithm", "NOPE",
                               "--out", str(tmp_path / "map.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-place: error:")
        assert "NOPE" in err

    def test_workload_unknown_app(self, tmp_path, capsys):
        code = workload_cli.main(["--app", "NotAnApp",
                                  "--out", str(tmp_path / "t.npz")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-workload: error:")
        assert "NotAnApp" in err

    def test_simulate_missing_map_file(self, tmp_path, capsys):
        traces = tmp_path / "t.npz"
        workload_cli.main(["--app", "Water", "--scale", "0.001",
                           "--out", str(traces)])
        capsys.readouterr()  # drain the workload tool's own output
        code = simulate_cli.main(["--traces", str(traces),
                                  "--map", str(tmp_path / "absent.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-simulate: error:")
        assert "no such file" in err

    def test_argparse_usage_errors_keep_their_convention(self, capsys):
        # Unknown flags stay argparse's problem: SystemExit(2), usage text.
        with pytest.raises(SystemExit) as info:
            simulate_cli.main(["--engine", "imaginary"])
        assert info.value.code == 2


class TestExperimentsCli:
    def test_malformed_fault_spec_is_one_line(self, capsys):
        code = experiments_cli.main(["--inject-faults", "meteor:worker",
                                     "--sections", "table1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-experiments: error:")
        assert "meteor" in err
        assert "Traceback" not in err

    def test_retired_diverge_fault_is_rejected_not_ignored(self, capsys):
        """``diverge:speculate`` named a guard the result memo no longer
        has; a plan naming it fails loudly and lists the valid kinds."""
        code = experiments_cli.main(["--inject-faults", "diverge:speculate",
                                     "--sections", "table1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("repro-experiments: error: unknown fault "
                              "kind 'diverge'")
        for kind in ("crash", "corrupt", "torn", "node-crash", "partition"):
            assert repr(kind) in err
        assert "Traceback" not in err

    def test_fault_ledger_requires_inject_faults(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            experiments_cli.main(["--fault-ledger", str(tmp_path / "ledger")])
        assert info.value.code == 2

    def test_unknown_section_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as info:
            experiments_cli.main(["--sections", "figure99"])
        assert info.value.code == 2
