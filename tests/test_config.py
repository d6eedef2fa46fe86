"""Config parsing: totality, defaults, complete error lists."""

import pathlib

import numpy as np
import pytest

from nlchb.config import ConfigError, _uniform, parse_config
from nlchb.kernel import KernelResolutionWarning
from nlchb.solver import Model


class TestDefaults:
    def test_empty_text_is_valid(self):
        cfg = parse_config("")
        assert cfg.grid.nx == 64 and cfg.grid.ny == 64
        assert cfg.mode == "nonlocal"
        assert cfg.epsilon == 0.2
        assert cfg.dt is None  # auto
        assert cfg.t_end == 0.5
        assert cfg.potential.eta_f == 150.0
        assert cfg.material.l_c == 0.5

    def test_equal_configs_hash_equal(self):
        # the dict sections are compared but left out of the hash
        cfg = parse_config("")
        assert hash(cfg) == hash(parse_config(""))
        assert {cfg: 1}[parse_config("")] == 1
        other = parse_config("[output]\ndirectory = elsewhere\n")
        assert other != cfg and other.output != cfg.output

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\n[grid]\nnx = 16  # inline\nny = 16\n")
        assert cfg.grid.nx == 16

    def test_initial_state_spinodal_default(self):
        cfg = parse_config("")
        state = cfg.initial_state()
        assert state.phi.shape == (64, 64)
        assert abs(state.phi.mean()) < 1e-14
        assert state.vel.max_speed() == 0.0

    def test_initial_state_random_is_seeded(self):
        text = "[initial]\nphi_preset = random\n[run]\nseed = 7\n"
        s1 = parse_config(text).initial_state()
        s2 = parse_config(text).initial_state()
        assert np.array_equal(s1.phi, s2.phi)
        s3 = parse_config(text.replace("7", "8")).initial_state()
        assert not np.array_equal(s1.phi, s3.phi)


class TestUniform:
    """The random preset's draws are numpy's default_rng(seed).random stream."""

    # 0 to 42 are one 32-bit entropy word, 2^32+5 two, 2^64+1 three, the
    # 30-digit seed four and 2^130+7 five, which reach SeedSequence's second
    # mixing loop
    SEEDS = [0, 1, 3, 42, 2**32 + 5, 2**64 + 1, 2**130 + 7, 123456789012345678901234567890]

    @pytest.mark.parametrize("shape", [(1,), (8, 8), (17, 23), (256, 256)])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_numpy_byte_for_byte(self, seed, shape):
        drawn = _uniform(seed, shape)
        assert drawn.shape == shape and drawn.dtype == np.float64
        assert drawn.tobytes() == np.random.default_rng(seed).random(shape).tobytes()

    def test_convection_preset_is_the_numpy_formula(self):
        path = pathlib.Path(__file__).resolve().parent.parent / "configs" / "convection.cfg"
        cfg = parse_config(path.read_text(), base_dir=str(path.parent))
        ini = cfg.initial
        rng = np.random.default_rng(cfg.seed)
        phi = ini["phi_mean"] + ini["phi_amplitude"] * (rng.random(cfg.grid.shape) - 0.5)
        phi -= phi.mean() - ini["phi_mean"]
        assert cfg.initial_state().phi.tobytes() == phi.tobytes()


class TestErrors:
    def test_gamma_out_of_range_named(self):
        with pytest.raises(ConfigError) as info:
            parse_config("[kernel]\ngamma = 1.5\n")
        assert any("gamma" in e for e in info.value.errors)

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigError) as info:
            parse_config("[grid]\nnx = 16\nnx = 32\n")
        assert any("line 3" in e and "duplicate" in e for e in info.value.errors)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config("[grid]\nnxx = 16\n")
        assert any("unknown key" in e for e in info.value.errors)

    def test_all_errors_collected_not_first_only(self):
        bad = "[grid]\nnx = 4\n[kernel]\ngamma = 2.0\nepsilon = -1\n[solver]\ndt = -0.1\n"
        with pytest.raises(ConfigError) as info:
            parse_config(bad)
        joined = "\n".join(info.value.errors)
        assert "grid" in joined and "gamma" in joined and "epsilon" in joined and "dt" in joined
        assert len(info.value.errors) >= 4

    def test_missing_forcing_file_reported(self):
        with pytest.raises(ConfigError) as info:
            parse_config("[forcing]\nz_preset = file\nz_file = nosuch.bin\n")
        assert any("not found" in e for e in info.value.errors)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("kernel", "epsilon", "inf"),  # float
            ("solver", "t_end", "inf"),
            ("initial", "phi_amplitude", "nan"),
            ("physics", "f_coeffs", "0.25, 0.0, -0.5, nan, 0.25"),  # floats
            ("solver", "dt", "-inf"),  # float_or_auto
            ("solver", "stabilization", "nan"),
        ],
    )
    def test_non_finite_number_rejected(self, section, key, value):
        with pytest.raises(ConfigError) as info:
            parse_config(f"[{section}]\n{key} = {value}\n")
        assert info.value.errors == [f"[{section}] {key}: must be finite, got {value!r}"]

    def test_auto_and_finite_numbers_still_parse(self):
        cfg = parse_config("[solver]\ndt = AUTO\nstabilization = 2.5\nt_end = 1e-2\n")
        assert cfg.dt is None and cfg.stabilization == 2.5 and cfg.t_end == 1e-2

    @pytest.mark.parametrize(
        "text, errors",
        [
            ("[nosuch]\nx = 1\n",
             ["line 1: unknown section [nosuch]", "line 2: key 'x' outside any known section"]),
            ("[grid]\nnx 16\n", ["line 2: expected 'key = value', got 'nx 16'"]),
            ("nx = 16\n", ["line 1: key 'nx' outside any known section"]),
            ("[solver]\nt_end = 0\n", ["[solver] t_end: must be positive, got 0.0"]),
            ("[solver]\nsafety = 0\n", ["[solver] safety: must lie in (0, 1], got 0.0"]),
            ("[solver]\nsafety = 1.5\n", ["[solver] safety: must lie in (0, 1], got 1.5"]),
            ("[solver]\ncadence = 0\n", ["[solver] cadence: must be >= 1, got 0"]),
            ("[solver]\nstabilization = -1\n",
             ["[solver] stabilization: must be nonnegative or 'auto', got -1.0"]),
            ("[initial]\ntheta_preset = file\n",
             ["[initial] theta_file: required when theta_preset = file"]),
            ("[forcing]\nq_preset = file\n", ["[forcing] q_file: required when q_preset = file"]),
            ("[run]\nseed = -1\n", ["[run] seed: must be nonnegative, got -1"]),
        ],
    )
    def test_each_rule_reports_exactly_its_error(self, text, errors):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.errors == errors

    def test_bad_type_reported_with_location(self):
        with pytest.raises(ConfigError) as info:
            parse_config("[grid]\nnx = many\n")
        assert any("[grid] nx" in e for e in info.value.errors)


class TestWarnings:
    def test_under_resolved_epsilon_warns_not_errors(self):
        # the config parses; sampling the kernel is what warns
        cfg = parse_config("[grid]\nnx = 8\nny = 8\n[kernel]\nepsilon = 0.1\n")
        with pytest.warns(KernelResolutionWarning, match="fewer than two cells"):
            Model.build(cfg)


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["spinodal", "convection"])
    def test_demo_configs_parse(self, name):
        import os

        path = os.path.join(os.path.dirname(__file__), "..", "configs", f"{name}.cfg")
        cfg = parse_config(open(path).read(), base_dir=os.path.dirname(path))
        assert cfg.t_end == 0.5
        assert cfg.mode == "nonlocal"


class TestBuilders:
    def test_file_initial_and_forcing(self, tmp_path):
        from nlchb.grid import MacVelocity, make_grid
        from nlchb.snapshots import write_snapshot
        from nlchb.solver import SimState

        grid = make_grid(16, 16, 1.0, 1.0)
        rng = np.random.default_rng(5)
        donor = SimState(
            t=0.3, step=9, phi=rng.standard_normal(grid.shape),
            theta=rng.standard_normal(grid.shape), vel=MacVelocity(grid),
        )
        path = tmp_path / "donor.bin"
        write_snapshot(str(path), donor, grid)
        text = (
            "[grid]\nnx = 16\nny = 16\n"
            "[initial]\nphi_preset = file\nphi_file = donor.bin\n"
            "theta_preset = constant\ntheta_value = 2.0\n"
            "[forcing]\nz_preset = file\nz_file = donor.bin\n"
        )
        cfg = parse_config(text, base_dir=str(tmp_path))
        state = cfg.initial_state()
        assert np.array_equal(state.phi, donor.phi)
        assert np.all(state.theta == 2.0)   # theta preset still honored
        assert state.t == 0.0 and state.step == 0
        z = cfg.forcing().z
        assert np.array_equal(z, donor.theta)

    def test_build_model_local_mode(self):
        cfg = parse_config("[kernel]\nmode = local\n")
        model = Model.build(cfg)
        assert model.kernel is None
        assert model.stabilization > 0.0

    def test_forcing_constant(self):
        cfg = parse_config("[forcing]\nz_preset = constant\nz_value = 2.0\n")
        forcing = cfg.forcing()
        z = forcing.z
        assert np.all(z == 2.0)
        assert forcing.q is None

    def test_file_theta_and_q(self, tmp_path):
        from nlchb.grid import MacVelocity, make_grid
        from nlchb.snapshots import write_snapshot
        from nlchb.solver import SimState

        grid = make_grid(16, 12, 1.0, 0.75)
        rng = np.random.default_rng(6)
        vel = MacVelocity(grid)
        vel.u[1:-1, :] = rng.standard_normal((grid.nx - 1, grid.ny))
        vel.v[:, 1:-1] = rng.standard_normal((grid.nx, grid.ny - 1))
        donor = SimState(
            t=0.1, step=3, phi=rng.standard_normal(grid.shape),
            theta=rng.standard_normal(grid.shape), vel=vel,
        )
        write_snapshot(str(tmp_path / "donor.bin"), donor, grid)
        text = (
            "[grid]\nnx = 16\nny = 12\nly = 0.75\n"
            "[initial]\ntheta_preset = file\ntheta_file = donor.bin\n"
            "[forcing]\nq_preset = file\nq_file = donor.bin\n"
        )
        cfg = parse_config(text, base_dir=str(tmp_path))
        state = cfg.initial_state()
        assert np.array_equal(state.theta, donor.theta)
        assert not state.vel.u.any() and not state.vel.v.any()  # u preset still zero
        qx, qy = cfg.forcing().q
        assert np.array_equal(qx, vel.u) and np.array_equal(qy, vel.v)

    def test_forcing_q_constant(self):
        cfg = parse_config(
            "[grid]\nnx = 16\nny = 12\n[forcing]\nq_preset = constant\nq_x = 1.5\nq_y = -2.0\n"
        )
        forcing = cfg.forcing()
        qx, qy = forcing.q
        assert qx.shape == (17, 12) and np.all(qx == 1.5)
        assert qy.shape == (16, 13) and np.all(qy == -2.0)
        assert forcing.z is None

    def test_forcing_z_single_mode(self):
        cfg = parse_config(
            "[grid]\nnx = 16\nny = 12\nlx = 2.0\n"
            "[forcing]\nz_preset = single_mode\nz_amplitude = 3.0\nz_kx = 2\nz_ky = 1\n"
        )
        X, Y = cfg.grid.cell_centers()
        z = cfg.forcing().z
        assert np.array_equal(z, 3.0 * np.cos(np.pi * 2 * X / 2.0) * np.cos(np.pi * Y / 1.0))
        assert z.shape == (16, 12) and np.abs(z).max() > 2.5
