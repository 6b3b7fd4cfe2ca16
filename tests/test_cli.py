"""CLI tests (in-process, via repro.cli.main)."""

import pytest

from repro.cli import main, parse_fault
from repro.errors import ReproError
from repro.sim import BadNode, CpuContention, NetworkDegradation, SlowMemoryNode


PROGRAM = """
global int NITER = 5;
void kernel() {
    int i;
    for (i = 0; i < 8; i = i + 1) compute_units(20);
}
int main() {
    int n;
    for (n = 0; n < NITER; n = n + 1) {
        kernel();
        MPI_Barrier();
    }
    return 0;
}
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.vsn"
    path.write_text(PROGRAM)
    return str(path)


class TestParseFault:
    def test_slowmem(self):
        fault = parse_fault("slowmem:3:0.5")
        assert isinstance(fault, SlowMemoryNode)
        assert fault.node_id == 3 and fault.mem_factor == 0.5

    def test_slowmem_default_factor(self):
        assert parse_fault("slowmem:1").mem_factor == 0.55

    def test_badnode(self):
        fault = parse_fault("badnode:2:0.7")
        assert isinstance(fault, BadNode)
        assert fault.cpu_factor == 0.7

    def test_contention_multiple_nodes(self):
        fault = parse_fault("contention:1,3:10:20:0.4")
        assert isinstance(fault, CpuContention)
        assert fault.node_ids == (1, 3)
        assert fault.t0 == 10_000.0 and fault.t1 == 20_000.0

    def test_netdeg(self):
        fault = parse_fault("netdeg:5:15:0.25")
        assert isinstance(fault, NetworkDegradation)
        assert fault.factor == 0.25

    def test_unknown_kind(self):
        with pytest.raises(ReproError, match="unknown fault kind"):
            parse_fault("gremlins:1")

    def test_malformed(self):
        with pytest.raises(ReproError, match="bad fault spec"):
            parse_fault("slowmem:not_a_number")


class TestCommands:
    def test_identify(self, program_file, capsys):
        assert main(["identify", program_file]) == 0
        out = capsys.readouterr().out
        assert "snippet candidates" in out
        assert "call kernel" in out

    def test_identify_workload(self, capsys):
        assert main(["identify", "--workload", "CG"]) == 0
        out = capsys.readouterr().out
        assert "identified sensors" in out

    def test_instrument_stdout(self, program_file, capsys):
        assert main(["instrument", program_file]) == 0
        out = capsys.readouterr().out
        assert "vs_tick" in out and "vs_tock" in out

    def test_instrument_to_file(self, program_file, tmp_path, capsys):
        out_path = tmp_path / "instrumented.vsn"
        assert main(["instrument", program_file, "-o", str(out_path)]) == 0
        assert "vs_tick" in out_path.read_text()

    def test_run_with_fault(self, program_file, capsys):
        code = main(
            [
                "run",
                program_file,
                "--ranks",
                "4",
                "--ranks-per-node",
                "2",
                "--fault",
                "slowmem:1:0.5",
                "--window-ms",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total time" in out
        assert "performance matrix" in out

    def test_run_export(self, program_file, tmp_path, capsys):
        stem = str(tmp_path / "matrix")
        assert (
            main(
                [
                    "run",
                    program_file,
                    "--ranks",
                    "4",
                    "--ranks-per-node",
                    "2",
                    "--export",
                    stem,
                ]
            )
            == 0
        )
        assert (tmp_path / "matrix_comp.pgm").exists()
        assert (tmp_path / "matrix_comp.csv").exists()

    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("BT", "CG", "FT", "AMG"):
            assert name in out

    def test_missing_file_error(self, capsys):
        assert main(["identify", "/nonexistent/prog.vsn"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_fault_error(self, program_file, capsys):
        assert main(["run", program_file, "--fault", "zap:1"]) == 2

    def test_no_program_no_workload(self, capsys):
        assert main(["identify"]) == 2


class TestPipelineFlags:
    """--explain structured output, --profile-passes, --no-cache."""

    def test_explain_prints_codes_and_spans(self, capsys):
        assert main(["identify", "--workload", "CG", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "rejected snippets (identify):" in out
        assert "note[" in out and "(identify)" in out
        assert "CG:" in out  # source spans carry the filename

    def test_explain_matches_structured_rejections(self, capsys):
        from repro.api import compile_and_instrument
        from repro.workloads import get_workload

        static = compile_and_instrument(
            get_workload("CG").source(scale=1), filename="CG"
        )
        assert main(["identify", "--workload", "CG", "--explain"]) == 0
        out = capsys.readouterr().out
        for rejection in static.identification.rejections:
            diag = rejection.diagnostic
            assert f"[{diag.code.value}]" in out
            assert f"CG:{diag.span.line}:" in out

    def test_profile_passes_table(self, capsys):
        assert main(["identify", "--workload", "CG", "--profile-passes"]) == 0
        out = capsys.readouterr().out
        assert "per-pass profile:" in out
        for name in ("parse", "identify", "select", "instrument", "total"):
            assert name in out

    def test_no_cache_disables_store(self, capsys):
        assert main(
            ["identify", "--workload", "CG", "--no-cache", "--profile-passes"]
        ) == 0
        out = capsys.readouterr().out
        assert "cache disabled" in out

    def test_run_profile_passes(self, program_file, capsys):
        assert main(
            ["run", program_file, "--ranks", "4", "--ranks-per-node", "2",
             "--profile-passes"]
        ) == 0
        assert "per-pass profile:" in capsys.readouterr().out

    def test_instrument_profile_passes(self, program_file, capsys):
        assert main(["instrument", program_file, "--profile-passes"]) == 0
        assert "per-pass profile:" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_obs_summary_prints_flame_and_budget(self, program_file, capsys):
        assert main(
            ["run", program_file, "--ranks", "4", "--ranks-per-node", "2",
             "--obs-summary"]
        ) == 0
        out = capsys.readouterr().out
        assert "flame summary (real track)" in out
        assert "vsensor.simulate" in out
        assert "observability self-cost:" in out

    def test_trace_out_writes_loadable_chrome_trace(self, program_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(
            ["run", program_file, "--ranks", "4", "--ranks-per-node", "2",
             "--trace-out", str(trace_path)]
        ) == 0
        from repro.obs import parse_chrome_trace

        spans = parse_chrome_trace(trace_path.read_text())
        assert any(s["name"] == "vsensor.simulate" for s in spans)
        assert "trace written to" in capsys.readouterr().out

    def test_metrics_out_writes_sorted_document(self, program_file, tmp_path):
        import json

        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["run", program_file, "--ranks", "4", "--ranks-per-node", "2",
             "--metrics-out", str(metrics_path)]
        ) == 0
        doc = json.loads(metrics_path.read_text())
        assert set(doc) == {"counters", "gauges", "histograms"}
        assert doc["counters"]["sim.ranks_finished"] == 4

    def test_run_without_obs_flags_prints_no_flame(self, program_file, capsys):
        assert main(
            ["run", program_file, "--ranks", "4", "--ranks-per-node", "2"]
        ) == 0
        assert "flame summary" not in capsys.readouterr().out
