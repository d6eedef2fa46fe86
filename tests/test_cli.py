"""End-to-end CLI tests: run, resume determinism, oracle, sweeps, validation."""

import numpy as np
import pytest

import nlchb.cli
from nlchb.cli import main
from nlchb.energy import LEDGER_COLUMNS
from nlchb.snapshots import LedgerCsvWriter, read_snapshot

FAST_RUN = """
[grid]
nx = 16
ny = 16

[kernel]
epsilon = 0.3
gamma = 0.5

[solver]
dt = 1e-3
t_end = 2e-2
cadence = 5

[output]
directory = {out}
"""

ORACLE_CFG = """
[grid]
nx = 16
ny = 16

[kernel]
epsilon = 0.3
gamma = 0.5

[output]
directory = {out}
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text.format(out=tmp_path / "out"))
    return str(path)


class TestRun:
    def test_run_writes_outputs_and_exits_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_RUN)
        assert main(["run", cfg]) == 0
        out = tmp_path / "out"
        assert (out / "ledger.csv").exists()
        assert (out / "checkpoint.bin").exists()
        assert (out / "validation.txt").exists()
        assert any(p.name.startswith("phi_") and p.suffix == ".ppm" for p in out.iterdir())
        lines = (out / "ledger.csv").read_text().splitlines()
        assert len(lines) == 21  # header + 20 steps

    def test_rest_equilibrium_constant_energy_100_steps(self, tmp_path):
        text = FAST_RUN.replace("t_end = 2e-2", "t_end = 1e-1")
        text += "\n[initial]\nphi_preset = constant\nphi_value = 1.0\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg]) == 0
        lines = (tmp_path / "out" / "ledger.csv").read_text().splitlines()
        assert len(lines) == 101  # header + 100 steps
        header = lines[0].split(",")
        e_col = header.index("E_total")
        energies = [float(l.split(",")[e_col]) for l in lines[1:]]
        assert max(energies) - min(energies) <= 1e-12 * max(abs(energies[0]), 1.0)

    def test_spinodal_run_energy_nonincreasing(self, tmp_path):
        text = (
            "[grid]\nnx = 32\nny = 32\n"
            "[kernel]\nepsilon = 0.25\ngamma = 0.5\n"
            "[solver]\ndt = auto\nt_end = 0.05\n"
            "[output]\ndirectory = {out}\nwrite_images = false\nwrite_snapshots = false\n"
        )
        cfg = write_cfg(tmp_path, text)
        assert main(["run", cfg]) == 0
        lines = (tmp_path / "out" / "ledger.csv").read_text().splitlines()
        e_col = lines[0].split(",").index("E_total")
        energies = np.array([float(l.split(",")[e_col]) for l in lines[1:]])
        assert np.diff(energies).max() <= 1e-8 * energies[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_exits_2_with_snapshot(self, tmp_path):
        text = FAST_RUN + (
            "\n[physics]\nk_cap = 10.0\nalpha2 = 5.0\ng_y = -10.0\n"
            "nu_min = 0.01\nnu_max = 0.01\n"
            "\n[initial]\ntheta_preset = constant\ntheta_value = 1.0\n"
        )
        text = text.replace("dt = 1e-3", "dt = 10.0").replace("t_end = 2e-2", "t_end = 1e4")
        cfg = write_cfg(tmp_path, text)
        rc = main(["run", cfg])
        assert rc == 2
        assert (tmp_path / "out" / "blowup.bin").exists()
        assert (tmp_path / "out" / "ledger.csv").exists()

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, FAST_RUN)
        override = tmp_path / "elsewhere"
        monkeypatch.setenv("NLCHB_OUTPUT_DIR", str(override))
        assert main(["run", cfg]) == 0
        assert (override / "checkpoint.bin").exists()

    def test_bad_config_exits_1(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[kernel]\ngamma = 7\n")
        assert main(["run", str(path)]) == 1


class TestResume:
    def test_checkpoint_restart_bit_exact(self, tmp_path):
        # full run
        full_cfg = write_cfg(tmp_path, FAST_RUN.replace("{out}", "{out}_full"), "full.cfg")
        assert main(["run", full_cfg]) == 0
        full_state, _ = read_snapshot(str(tmp_path / "out_full" / "checkpoint.bin"))

        # half run, then resume
        half_text = FAST_RUN.replace("{out}", "{out}_half").replace("t_end = 2e-2", "t_end = 1e-2")
        half_cfg = write_cfg(tmp_path, half_text, "half.cfg")
        assert main(["run", half_cfg]) == 0
        half_ckpt = str(tmp_path / "out_half" / "checkpoint.bin")

        # patch the embedded config's horizon by rewriting the checkpoint
        state, meta = read_snapshot(half_ckpt)
        from nlchb.snapshots import write_snapshot

        write_snapshot(
            half_ckpt,
            state,
            meta["grid"],
            mode=meta["mode"],
            epsilon=meta["epsilon"],
            gamma=meta["gamma"],
            config_text=meta["config_text"].replace("t_end = 1e-2", "t_end = 2e-2"),
            dt=meta["dt"],
        )
        assert main(["resume", half_ckpt]) == 0
        resumed_state, _ = read_snapshot(str(tmp_path / "out_half" / "checkpoint.bin"))

        assert resumed_state.t == full_state.t
        assert np.array_equal(resumed_state.phi, full_state.phi)
        assert np.array_equal(resumed_state.theta, full_state.theta)
        assert np.array_equal(resumed_state.vel.u, full_state.vel.u)
        assert np.array_equal(resumed_state.vel.v, full_state.vel.v)

    def test_resume_from_mid_run_snapshot_keeps_ledger(self, tmp_path):
        # resuming cuts ledger.csv back to the snapshot's t before appending,
        # so no row is repeated and the file matches the uninterrupted run's
        cfg = write_cfg(tmp_path, FAST_RUN)
        assert main(["run", cfg]) == 0
        out = tmp_path / "out"
        ledger = (out / "ledger.csv").read_bytes()
        checkpoint = (out / "checkpoint.bin").read_bytes()
        with open(out / "ledger.csv", "a", encoding="utf-8") as fh:
            fh.write("0.0")  # a row torn by a killed run; its prefix parses as t = 0
        assert main(["resume", str(out / "snapshot_00000010.bin")]) == 0
        assert (out / "ledger.csv").read_bytes() == ledger
        assert (out / "checkpoint.bin").read_bytes() == checkpoint

    def test_resume_from_malformed_snapshot_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_RUN)
        assert main(["run", cfg]) == 0
        path = tmp_path / "out" / "checkpoint.bin"
        path.write_bytes(path.read_bytes().replace(b"\nt=", b"\nx=", 1))
        capsys.readouterr()
        assert main(["resume", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_resume_already_finished(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_RUN)
        assert main(["run", cfg]) == 0
        assert main(["resume", str(tmp_path / "out" / "checkpoint.bin")]) == 0


class TestOracle:
    def test_oracle_passes_on_default_small_config(self, tmp_path):
        cfg = write_cfg(tmp_path, ORACLE_CFG)
        assert main(["oracle", cfg]) == 0

    def test_corrupted_kernel_fails(self, tmp_path, monkeypatch):
        raw = nlchb.cli.sample_kernel

        def asymmetric(*args, **kwargs):
            kernel = raw(*args, **kwargs)
            kernel.values[1, 2] *= 1.5  # breaks the even symmetry of the sampled kernel
            return kernel

        monkeypatch.setattr(nlchb.cli, "sample_kernel", asymmetric)
        cfg = write_cfg(tmp_path, ORACLE_CFG)
        assert main(["oracle", cfg]) == 1

    def test_large_grid_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, ORACLE_CFG.replace("nx = 16", "nx = 64").replace("ny = 16", "ny = 64"))
        assert main(["oracle", cfg]) == 1


class TestValidateAndSweeps:
    def test_validate_prints_report(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, ORACLE_CFG)
        assert main(["validate", cfg]) == 0
        out = capsys.readouterr().out
        assert "c1" in out and "flags" in out

    def test_gamma_sweep_writes_csv(self, tmp_path):
        text = ORACLE_CFG.replace("nx = 16", "nx = 32").replace("ny = 16", "ny = 32")
        cfg = write_cfg(tmp_path, text)
        assert main(["gamma-sweep", cfg, "--eps", "0.4,0.2"]) == 0
        csv = (tmp_path / "out" / "gamma_sweep.csv").read_text()
        assert "# kind = gamma_sweep" in csv
        assert "e_nl" in csv

    def test_sweep_eps_writes_summary_and_subdirs(self, tmp_path):
        text = FAST_RUN.replace("t_end = 2e-2", "t_end = 5e-3")
        cfg = write_cfg(tmp_path, text)
        assert main(["sweep-eps", cfg, "--eps", "0.4,0.2"]) == 0
        out = tmp_path / "out"
        assert (out / "sweep_eps.csv").exists()
        assert (out / "eps_0.4" / "ledger.csv").exists()
        assert (out / "eps_0.2" / "ledger.csv").exists()
        # every data cell is a plain number (no numpy scalar reprs)
        lines = (out / "sweep_eps.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        assert len(rows) == 2
        for row in rows:
            for cell in row:
                float(cell)

    def test_sweep_eps_ledgers_written_by_ledger_csv_writer(self, tmp_path, monkeypatch):
        # each member's ledger.csv holds the same bytes LedgerCsvWriter writes
        # for the member's rows: the header, then repr() of every value
        raw = nlchb.cli.solution_sweep
        ledgers = {}

        def sweep(*args, **kwargs):
            report = raw(*args, **kwargs)
            ledgers.update(report.ledgers)
            return report

        monkeypatch.setattr(nlchb.cli, "solution_sweep", sweep)
        cfg = write_cfg(tmp_path, FAST_RUN.replace("t_end = 2e-2", "t_end = 5e-3"))
        assert main(["sweep-eps", cfg, "--eps", "0.4,0.2"]) == 0
        assert sorted(ledgers) == [0.2, 0.4]
        for eps, ledger in ledgers.items():
            assert len(ledger.rows) == 5
            expected = tmp_path / f"expected_{eps:g}.csv"
            with LedgerCsvWriter(str(expected)) as csv:
                for row in ledger.rows:
                    csv.write_row(row)
            lines = [",".join(LEDGER_COLUMNS)]
            lines += [",".join(repr(row[c]) for c in LEDGER_COLUMNS) for row in ledger.rows]
            written = (tmp_path / "out" / f"eps_{eps:g}" / "ledger.csv").read_bytes()
            assert written == expected.read_bytes() == ("\n".join(lines) + "\n").encode()
