"""Config parsing and the command-line surface, including exit codes."""

import contextlib
import hashlib
import importlib
import io
import json
import pkgutil
import re
import subprocess
import sys
import tempfile
import tomllib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biphoton_cascade
import without_scipy
from biphoton_cascade import cli, validation
from biphoton_cascade.analytic import ExpansionTooLargeError, check_delay_count
from biphoton_cascade.cascade import compose
from biphoton_cascade.config import ConfigError, parse_config
from biphoton_cascade.interferogram import QuadratureBackend, sweep
from biphoton_cascade.presets import preset_cascade
from test_golden_cli import TABLE
from test_interferogram import read_trace_csv

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

BASE_CONFIG = """\
# minimal single-fringe experiment
cascade.preset = noon
spectrum.sigma_plus = 1.0
spectrum.sigma_minus = 1.0
sweep.swept = 0
sweep.start = -5
sweep.stop = 5
sweep.samples = 801
backend = analytic
"""

TWO_PARAM_CONFIG = """\
cascade.preset = two_param_2002
spectrum.sigma_plus = 1.0
spectrum.sigma_minus = 0.5
spectrum.pump_frequency = 12.0
sweep.swept = 1
sweep.fixed.0 = 5.0
sweep.start = -260
sweep.stop = 260
sweep.samples = 4096
"""


def test_parse_config_happy_path():
    config = parse_config(BASE_CONFIG)
    assert config.cascade == preset_cascade("noon")
    assert config.backend == "analytic"
    assert config.sweep.samples == 801
    assert config.spectrum.pump_frequency == 20.0


def test_parse_config_custom_stages():
    config = parse_config(
        "cascade.stages = -, 0, 1\ncascade.n_delays = 2\nsweep.swept = 1\n"
        "sweep.fixed.0 = 1.0\n"
    )
    assert config.cascade.n_delays == 2
    assert config.cascade.stages[0].delay_label is None
    assert config.cascade.stages[2].delay_label == 1


def test_parse_config_grid_section():
    config = parse_config("cascade.preset = homi\ngrid.nodes = 128\n")
    assert config.grid.nodes_per_axis == 128


def test_explicit_grid_nodes_set_both_axes(tmp_path):
    # whatever the two linewidths, grid.nodes is the count of each axis,
    # and every point of the sweep is integrated on that one grid
    text = (CONFIGS / "three_param_2002_correlated.cfg").read_text().replace(
        "sweep.samples = 6401", "sweep.samples = 3") + "grid.nodes = 129\n"
    config = parse_config(text)
    assert config.grid.nodes == (129, 129) and config.grid.extent_sigmas == 8.0
    assert parse_config(text + "grid.extent = 6\n").grid.nodes == (129, 129)
    trace = sweep(QuadratureBackend(compose(config.cascade), config.spectrum,
                                    config.grid), config.sweep)
    assert trace.meta["grid_nodes"] == ((129, 129), (129, 129))


@pytest.mark.parametrize(
    "text",
    [
        "not a key value line\n",
        "cascade.preset = unknown_preset\n",
        "cascade.preset = homi\nbackend = magic\n",
        "cascade.preset = homi\nsweep.swept = x\n",
        "cascade.stages = 0, q\n",
        "spectrum.sigma_plus = 1.0\n",  # no cascade at all
        "cascade.preset = homi\nsweep.swept = 3\n",  # swept out of range
        "cascade.preset = homi\nsweep.swept = 0\nsweep.fixed.3 = 1.0\n",
        "cascade.preset = homi\nsweep.swept = 0\nsweep.fixed.0 = 1.0\n",
        "cascade.preset = two_param_11\nsweep.swept = 1\n",  # fixed.0 missing
        "cascade.preset = noon\nspectrum.pump_frequency = inf\n",
        "cascade.preset = noon\nsweep.swept = 0\nsweep.start = nan\n",
        "cascade.preset = two_param_11\nsweep.swept = 1\nsweep.fixed.0 = -inf\n",
        "cascade.preset = noon\ngrid.nodes = 100000000\n",  # over the memory budget
        "cascade.preset = noon\nsweep.swept = 0\nprune.threshold = -1\n",
        # over the sweep memory budget
        "cascade.preset = noon\nsweep.swept = 0\nsweep.samples = 100000000\n",
        "cascade.stages = -, -\ncascade.n_delays = -2\n",  # negative delay count
        "cascade.stages = -\ncascade.n_delays = -2\n",
    ],
)
def test_parse_config_rejects_malformed(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_value_errors_come_in_file_order_before_cross_key_errors():
    text = ("cascade.preset = homi\nsweep.swept = 5\nsweep.start = y\n"
            "spectrum.sigma_plus = x\n")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == "sweep.start: not a number: 'y'"
    with pytest.raises(ConfigError) as info:
        parse_config(text.replace("y", "1").replace("x", "1"))
    assert str(info.value) == "sweep.swept: delay 5 out of range for 1 delays"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_example_parses():
    example = README.read_text().split("### Config format", 1)[1].split("```\n", 2)[1]
    config = parse_config(example)
    assert config.cascade == preset_cascade("two_param_2002")
    assert (config.sweep.swept, config.backend) == (1, "analytic")


def test_readme_defaults_table_matches_the_key_table():
    from biphoton_cascade.config import _KEYS

    table = README.read_text().split("### Defaults", 1)[1].split("\n#", 1)[0]
    rows = dict(re.findall(r"^\| `([^`]+)` \| ([^|]+?) \|", table, re.MULTILINE))
    assert set(rows) == set(_KEYS)
    for key, cell in rows.items():
        reader, default, _ = _KEYS[key]
        if default is None:
            assert cell in ("none", "adaptive", "largest label + 1"), key
        else:
            assert reader(key, cell.replace("\u2212", "-")) == default, key


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_derive_prints_formula(tmp_path, capsys):
    path = write(tmp_path, "noon.cfg", BASE_CONFIG)
    assert cli.main(["derive", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "1 + g+(t1)" in out
    assert "terms: 2" in out


def test_derive_latex_flag(tmp_path, capsys):
    path = write(tmp_path, "noon.cfg", BASE_CONFIG)
    assert cli.main(["derive", "--config", path, "--latex"]) == 0
    assert "g_+(\\tau_{1})" in capsys.readouterr().out


def test_sweep_writes_csv(tmp_path):
    path = write(tmp_path, "noon.cfg", BASE_CONFIG)
    out = str(tmp_path / "trace.csv")
    assert cli.main(["sweep", "--config", path, "--out", out]) == 0
    trace, _ = read_trace_csv(out)
    assert len(trace.taus) == 801
    assert trace.values.max() <= 2.0 + 1e-9


def test_sweep_both_backends_agree(tmp_path, capsys):
    path = write(tmp_path, "noon.cfg", BASE_CONFIG.replace("samples = 801",
                                                           "samples = 41"))
    out = str(tmp_path / "trace.csv")
    assert cli.main(["sweep", "--config", path, "--backend", "both",
                     "--out", out]) == 0
    assert (tmp_path / "trace.quad.csv").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("backend max |delta| = ")
    # the suggested grids certify every point far inside the tolerance
    assert re.fullmatch(r"quadrature max half-grid estimate = (\S+)", err[1])
    assert float(err[1].split("= ")[1]) <= 1e-9


def test_sweep_both_reports_grids_without_a_half_grid(tmp_path, capsys):
    config = BASE_CONFIG.replace("samples = 801", "samples = 5") + "grid.nodes = 256\n"
    path = write(tmp_path, "noon.cfg", config)
    assert cli.main(["sweep", "--config", path, "--backend", "both",
                     "--out", str(tmp_path / "trace.csv")]) == 0
    assert capsys.readouterr().err.splitlines()[1] == \
        "quadrature max half-grid estimate = none (the grid has no half grid)"


def test_sweep_detects_backend_disagreement(tmp_path):
    # A deliberately coarse, narrow quadrature grid cannot reproduce the
    # analytic values; the mismatch must surface as exit code 3.
    # around tau = 20 the density oscillation aliases on 32 nodes
    bad = BASE_CONFIG.replace("samples = 801", "samples = 11") \
        .replace("sweep.start = -5", "sweep.start = 19.9") \
        .replace("sweep.stop = 5", "sweep.stop = 20.1") + \
        "grid.nodes = 32\ngrid.extent = 5.0\n"
    path = write(tmp_path, "bad.cfg", bad)
    out = str(tmp_path / "trace.csv")
    assert cli.main(["sweep", "--config", path, "--backend", "both",
                     "--out", out]) == 3


def test_envelope_subcommand(tmp_path):
    path = write(tmp_path, "noon.cfg", BASE_CONFIG)
    out = str(tmp_path / "env.csv")
    assert cli.main(["envelope", "--config", path, "--out", out]) == 0
    trace, env = read_trace_csv(out)
    assert env is not None
    np.testing.assert_allclose(
        env.upper.values, 1.0 + np.exp(-trace.taus**2 / 2.0), atol=1e-9
    )


def test_reconstruct_reports_fits(tmp_path, capsys):
    path = write(tmp_path, "two.cfg", TWO_PARAM_CONFIG)
    out = str(tmp_path / "spectra.csv")
    assert cli.main(["reconstruct", "--config", path, "--out", out]) == 0
    report = capsys.readouterr().out
    assert "fitted sigma_minus" in report and "fitted sigma_plus" in report


def test_reconstruct_requires_carrier(tmp_path, capsys):
    homi_cfg = BASE_CONFIG.replace("cascade.preset = noon",
                                   "cascade.preset = homi")
    path = write(tmp_path, "homi.cfg", homi_cfg)
    assert cli.main(["reconstruct", "--config", path,
                     "--out", str(tmp_path / "x.csv")]) == 4


@pytest.mark.parametrize("shipped", sorted(CONFIGS.glob("homi_*.cfg")),
                         ids=lambda path: path.stem)
def test_reconstruct_refuses_a_cascade_without_carrier(tmp_path, shipped):
    out = tmp_path / "spectra.csv"
    result = run_cli("reconstruct", "--config", str(shipped), "--out", str(out))
    assert (result.returncode, result.stdout, result.stderr) == \
        (4, "", "error: cascade has no carrier to demodulate\n")
    assert not out.exists()


def test_reconstruct_undersampled_carrier(tmp_path):
    sparse = TWO_PARAM_CONFIG.replace("samples = 4096", "samples = 512")
    path = write(tmp_path, "sparse.cfg", sparse)
    assert cli.main(["reconstruct", "--config", path,
                     "--out", str(tmp_path / "x.csv")]) == 4


def test_reconstruct_short_window_is_config_error(tmp_path):
    short = TWO_PARAM_CONFIG.replace("sweep.start = -260", "sweep.start = -5") \
        .replace("sweep.stop = 260", "sweep.stop = 5")
    path = write(tmp_path, "short.cfg", short)
    result = subprocess.run(
        [sys.executable, "-m", "biphoton_cascade.cli", "reconstruct",
         "--config", path, "--out", str(tmp_path / "x.csv")],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.count("\n") == 1
    assert "sweep window too short" in result.stderr


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "biphoton_cascade.cli", *args],
                          capture_output=True, text=True)


def test_reconstruct_strips_satellites_at_a_negative_fixed_delay(tmp_path):
    # the satellite replicas sit at +-|fixed.0|, so its sign must not
    # change the reconstruction
    shipped = CONFIGS / "three_param_11_correlated.cfg"
    reports = []
    for fixed in ("8.0", "-8.0"):
        text = shipped.read_text().replace("sweep.fixed.0 = 8.0",
                                           f"sweep.fixed.0 = {fixed}")
        path = write(tmp_path, f"fixed{fixed}.cfg", text)
        result = run_cli("reconstruct", "--config", path,
                         "--out", str(tmp_path / "spectra.csv"))
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        reports.append(result.stdout)
    assert reports[0] == reports[1]


#: One splitter among 10^8 delays: the cascade's rows alone would take
#: gigabytes, so the delay count is refused before the cascade is composed.
HUGE_DELAY_COUNT = "cascade.stages = 0\ncascade.n_delays = 100000000\n"
HUGE_DELAY_REFUSAL = ("config error: expanding 100000000 delays would need 5.96 GiB "
                      "of integer rows; the budget is 2 GiB\n")


def test_huge_delay_count_is_refused_in_one_line(tmp_path):
    path = write(tmp_path, "wide.cfg", HUGE_DELAY_COUNT)
    for command in ("derive", "sweep", "envelope", "reconstruct"):
        result = run_cli(command, "--config", path, "--out", str(tmp_path / "x.txt"))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == HUGE_DELAY_REFUSAL
    assert not (tmp_path / "x.txt").exists()


def test_huge_delay_count_is_refused_before_compose(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("composed")

    monkeypatch.setattr(cli, "compose", refuse)
    path = write(tmp_path, "wide.cfg", HUGE_DELAY_COUNT)
    tracemalloc.start()
    try:
        code = cli.main(["derive", "--config", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == HUGE_DELAY_REFUSAL
    assert peak < 1 << 20
    # 33 554 432 delays, one cell of 2 n int64 columns at 32 B each, are the
    # most the budget admits
    check_delay_count(2**31 // 64)
    with pytest.raises(ExpansionTooLargeError):
        check_delay_count(2**31 // 64 + 1)


def test_nine_delay_expansion_is_refused_in_one_line(tmp_path):
    # about 9.9 GiB of cells; the refusal comes before any of them is built
    path = write(tmp_path, "nine.cfg", "cascade.stages = 0,1,2,3,4,5,6,7,8\n")
    result = run_cli("derive", "--config", path, "--out", str(tmp_path / "x.txt"))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == ("config error: expanding 9 delays would need 9.88 GiB "
                             "of integer rows; the budget is 2 GiB\n")
    assert not (tmp_path / "x.txt").exists()


def test_reconstruct_window_without_structure_is_config_error(tmp_path):
    # 60 to 80 lies past every structure of three_param_11 at 8 and 22
    text = (CONFIGS / "three_param_11_anticorrelated.cfg").read_text() \
        .replace("sweep.start = -80.0", "sweep.start = 60")
    path = write(tmp_path, "late.cfg", text)
    result = run_cli("reconstruct", "--config", path, "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("config error: sweep window holds no structure")
    assert result.stderr.count("\n") == 1


def test_zero_baseline_cascade_is_config_error(tmp_path):
    # One delay-free splitter sends a symmetric pair to the same port.
    path = write(tmp_path, "bunch.cfg", "cascade.stages = -\n")
    result = run_cli("derive", "--config", path)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.count("\n") == 1
    assert "zero asymptotic coincidence baseline" in result.stderr


def test_negative_delay_count_is_config_error(tmp_path):
    path = write(tmp_path, "negative.cfg", "cascade.stages = -, -\ncascade.n_delays = -2\n")
    for command in ("derive", "sweep"):
        result = run_cli(command, "--config", path, "--out", str(tmp_path / "x.csv"))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.count("\n") == 1
        assert "n_delays" in result.stderr


def test_non_finite_pump_frequency_is_config_error(tmp_path):
    path = write(tmp_path, "inf.cfg",
                 BASE_CONFIG + "spectrum.pump_frequency = inf\n")
    result = run_cli("sweep", "--config", path, "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2
    assert result.stderr == \
        "config error: spectrum.pump_frequency: not a finite number: 'inf'\n"


def test_overflowing_fixed_delay_sweeps_to_a_finite_trace(tmp_path):
    # (sigma tau)^2 overflows at tau1 = 1e200; the Hermite-Gaussian corr
    # there is 0, not (1 - inf) * 0 = NaN.
    path = write(tmp_path, "far.cfg",
                 "cascade.preset = two_param_11\nspectrum.symmetry = antisymmetric\n"
                 "sweep.swept = 1\nsweep.fixed.0 = 1e200\nsweep.samples = 201\n")
    out = tmp_path / "far.csv"
    result = run_cli("sweep", "--config", path, "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    trace, _ = read_trace_csv(str(out))
    assert len(trace.values) == 201 and np.all(np.isfinite(trace.values))


FAR_FIXED_CONFIG = """\
cascade.preset = two_param_11
spectrum.sigma_plus = 1.0
spectrum.sigma_minus = 0.1
spectrum.symmetry = antisymmetric
sweep.swept = 1
sweep.fixed.0 = 1e200
sweep.start = -60.0
sweep.stop = 60.0
sweep.samples = 4801
"""


def test_far_fixed_delay_prunes_its_term_without_warnings(tmp_path):
    # g-(t1) at t1 = 1e200 is 0 wherever t2 sweeps, so its term's peak is
    # exactly 0: dropped, with no overflow reaching the peak polynomial.
    path = write(tmp_path, "far.cfg", FAR_FIXED_CONFIG)
    full = run_cli("derive", "--config", path)
    pruned = run_cli("derive", "--prune", "--config", path)
    assert (full.returncode, full.stderr) == (0, "")
    assert (pruned.returncode, pruned.stderr) == (0, "")
    assert "- 1/2 g+(t2) g-(t1)" in full.stdout
    assert pruned.stdout == full.stdout.replace(" - 1/2 g+(t2) g-(t1)", "") \
        .replace("terms: 6", "terms: 5")
    swept = run_cli("sweep", "--config", path, "--out", str(tmp_path / "far.csv"))
    assert (swept.returncode, swept.stderr) == (0, "")


def test_overflowing_carrier_phase_is_config_error(tmp_path):
    # pump_frequency * tau overflows, so the carrier cos(inf) is NaN.
    path = write(tmp_path, "pump.cfg",
                 FAR_FIXED_CONFIG + "spectrum.pump_frequency = 1e308\n")
    result = run_cli("sweep", "--config", path, "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2
    assert result.stderr.endswith(
        "config error: trace contains non-finite values\n")


@pytest.mark.parametrize("command", ["sweep", "envelope"])
def test_overflowing_carrier_is_refused_in_one_line(tmp_path, command):
    # noon_correlated with its pump at 1e308: the carrier phase overflows
    # and its cosine is NaN; the refusal is the only line on stderr.
    shipped = CONFIGS / "noon_correlated.cfg"
    text = shipped.read_text().replace("spectrum.pump_frequency = 20.0",
                                       "spectrum.pump_frequency = 1e308")
    path = write(tmp_path, "pump.cfg", text)
    result = run_cli(command, "--config", path, "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2
    assert result.stderr == "config error: trace contains non-finite values\n"


def test_overflowing_carrier_is_refused_by_the_quadrature_sweep(tmp_path):
    # The same pump through the oracle alone: its carrier phases overflow
    # to NaN without a NumPy warning, and the refusal is one line.
    shipped = CONFIGS / "noon_correlated.cfg"
    text = shipped.read_text().replace("spectrum.pump_frequency = 20.0",
                                       "spectrum.pump_frequency = 1e308")
    path = write(tmp_path, "pump.cfg", text.replace("sweep.samples = 4001",
                                                    "sweep.samples = 5"))
    result = run_cli("sweep", "--config", path, "--backend", "quadrature",
                     "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "Warning" not in result.stderr
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("config error: non-finite coincidence density")


@pytest.mark.parametrize(
    "text, message",
    [
        # suggested_grid would ask for 10 185 980 nodes per axis
        ("cascade.preset = noon\nsweep.swept = 0\nsweep.start = 1e6\n"
         "sweep.stop = 1.000001e6\nsweep.samples = 2\n", "GiB budget"),
    ],
)
def test_unusable_quadrature_grid_is_config_error(tmp_path, text, message):
    path = write(tmp_path, "grid.cfg", text)
    result = run_cli("sweep", "--config", path, "--backend", "quadrature",
                     "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.count("\n") == 1
    assert message in result.stderr


#: A homi sweep through the oracle alone, at sigma_plus 1e300 (so a pump
#: of 1e308 passes the spectrum's guard).
HUGE_LINEWIDTH = ("cascade.preset = homi\nspectrum.sigma_plus = 1e300\n"
                  "spectrum.pump_frequency = 1e308\nsweep.swept = 0\n"
                  "sweep.samples = 3\nbackend = quadrature\n")


@pytest.mark.parametrize(
    "text, nodes",
    [
        # about 1e302 nodes per axis: the GiB message once overflowed an
        # int division
        (HUGE_LINEWIDTH, "1.01859e+302"),
        # an infinite count once overflowed the int conversion
        (HUGE_LINEWIDTH + "sweep.start = -1e300\nsweep.stop = 1e300\n", "inf"),
    ],
    ids=["finite-count", "infinite-count"],
)
def test_huge_suggested_grids_are_refused_in_one_line(tmp_path, text, nodes):
    path = write(tmp_path, "huge.cfg", text)
    result = run_cli("sweep", "--config", path, "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        f"config error: {nodes} nodes per axis would need inf GiB of quadrature "
        "temporaries; at most 4729 fit the 1 GiB budget\n")
    assert not (tmp_path / "x.csv").exists()


def test_underflowed_quadrature_weights_are_refused_in_one_line(tmp_path):
    # the odd minus profile's intensity scales as (sigma- x)^2, so at
    # sigma_minus 1e-160 every minus weight underflows to 0
    text = ("cascade.preset = homi\nspectrum.symmetry = antisymmetric\n"
            "spectrum.sigma_minus = 1e-160\nsweep.swept = 0\nsweep.samples = 3\n"
            "backend = quadrature\n")
    path = write(tmp_path, "tiny.cfg", text)
    result = run_cli("sweep", "--config", path, "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == ("config error: every quadrature weight underflows to 0 "
                             "at sigma_plus 1 and sigma_minus 1e-160\n")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("extent", ["1e5", "1e300"])
def test_wide_trapezoid_grid_is_refused_in_one_line(tmp_path, extent):
    # 256 nodes over +-1e5 linewidths: every quadrature weight underflows
    # and the normalization is 0; over +-1e300 the intensities' squares
    # overflow as well.  Refused at parse time, before either happens.
    text = ("cascade.preset = homi\nsweep.swept = 0\nsweep.samples = 3\n"
            f"grid.nodes = 256\ngrid.extent = {extent}\n")
    path = write(tmp_path, "wide.cfg", text)
    result = run_cli("sweep", "--config", path, "--backend", "quadrature",
                     "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"config error: extent_sigmas {float(extent):g} "
                                    "over 256 nodes spaces them")
    assert result.stderr.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("cascade.preset = noon\nsweep.swept = 0\nprune.threshold = -1\n",
         "config error: prune.threshold: must be >= 0, got -1.0\n"),
        ("cascade.preset = noon\n", "config error: config has no sweep section\n"),
    ],
    ids=["negative_threshold", "no_sweep"],
)
def test_derive_prune_needs_a_usable_sweep_and_threshold(tmp_path, text, message):
    path = write(tmp_path, "prune.cfg", text)
    result = run_cli("derive", "--prune", "--config", path)
    assert result.returncode == 2
    assert result.stderr == message
    assert result.stdout == ""


@pytest.mark.parametrize(
    "text, message",
    [
        (BASE_CONFIG + "sweep.sampels = 5\n", "line 10: unknown key 'sweep.sampels'"),
        (BASE_CONFIG + "spectrum.sigma_plsu = 3\n",
         "line 10: unknown key 'spectrum.sigma_plsu'"),
        (BASE_CONFIG + "sweep.samples = 5\n", "line 10: repeated key 'sweep.samples'"),
        (TWO_PARAM_CONFIG + "sweep.fixed.00 = 6\n",
         "line 10: repeated key 'sweep.fixed.0'"),
        (BASE_CONFIG + "cascade.stages = 0, 1\n",
         "cascade.stages: has no effect with cascade.preset"),
        (BASE_CONFIG + "cascade.n_delays = 1\n",
         "cascade.n_delays: has no effect without cascade.stages"),
        (BASE_CONFIG + "cascade.input_delay = 0\n",
         "cascade.input_delay: has no effect without cascade.stages"),
        ("cascade.preset = noon\ngrid.extent = 2\n",
         "grid.extent: has no effect without grid.nodes"),
        ("cascade.preset = noon\ngrid.nodes = 65\ngrid.rule = trapezoid\n",
         "line 3: unknown key 'grid.rule'"),
        (BASE_CONFIG + "outputs = figs\n", "line 10: unknown key 'outputs'"),
        ("cascade.preset = noon\nsweep.samples = 5\n",
         "sweep.samples: has no effect without sweep.swept"),
        ("cascade.preset = noon\nsweep.fixed.0 = 5\n",
         "sweep.fixed.0: has no effect without sweep.swept"),
    ],
    ids=["misspelled_sweep", "misspelled_spectrum", "repeated", "repeated_fixed",
         "stages_with_preset", "n_delays_with_preset", "input_delay_with_preset",
         "extent_without_nodes", "rule_is_unknown", "outputs_is_unknown",
         "samples_without_swept", "fixed_without_swept"],
)
def test_unknown_repeated_and_idle_keys_are_refused_in_one_line(tmp_path, capsys,
                                                                text, message):
    path = write(tmp_path, "keys.cfg", text)
    assert cli.main(["derive", "--config", path, "--out", str(tmp_path / "x.txt")]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not (tmp_path / "x.txt").exists()


def test_package_import_loads_no_scipy():
    """Import defers what it can: no SciPy, and the CSV formatter's tables
    are built on the first write."""
    result = subprocess.run(
        [sys.executable, "-c", "import io, sys, biphoton_cascade; "
         "from biphoton_cascade import textout as fmt; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
         "print(fmt._g17_tables.cache_info().currsize); "
         "fmt.write_csv_columns(io.StringIO(), [[0.5]]); "
         "print(fmt._g17_tables.cache_info().currsize)"],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "[]\n0\n1\n"


def test_reconstruct_runs_with_scipy_refused(tmp_path):
    """SciPy is a test dependency only: a shipped carrier config
    reconstructs in a fresh interpreter whose ``sys.meta_path`` refuses it,
    and no ``scipy*`` module is loaded (the wrapper exits 1 if one is)."""
    finder = without_scipy.RefuseSciPy()
    with pytest.raises(ModuleNotFoundError, match="scipy.optimize is refused"):
        finder.find_spec("scipy.optimize")
    assert finder.find_spec("numpy") is None
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", without_scipy.__file__,
         "reconstruct", "--config", str(CONFIGS / "two_param_2002_uncorrelated.cfg"),
         "--out", str(tmp_path / "spectra.csv")],
        capture_output=True, text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.startswith("fitted sigma_minus = 1.00069 ")


def test_every_refusal_is_an_input_error():
    modules = [importlib.import_module(f"biphoton_cascade.{info.name}")
               for info in pkgutil.iter_modules(biphoton_cascade.__path__)]
    refusals = [cls for module in modules for cls in vars(module).values()
                if isinstance(cls, type) and issubclass(cls, Exception)
                and cls.__module__ == module.__name__]
    assert len(refusals) == 10  # InputError and the nine refusals
    assert all(issubclass(cls, biphoton_cascade.InputError) for cls in refusals)


def test_missing_config_file_is_io_error(tmp_path):
    assert cli.main(["derive", "--config", str(tmp_path / "nope.cfg")]) == 5


def test_malformed_config_exit_code(tmp_path):
    path = write(tmp_path, "bad.cfg", "cascade.preset = bogus\n")
    assert cli.main(["derive", "--config", path]) == 2


def test_validate_passes(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8 and "FAIL" not in out


def test_validate_states_the_oracle_estimate(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert cli.main(["validate", "--json", str(report)]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if "oracle-equivalence" in line)
    match = re.fullmatch(r"PASS oracle-equivalence: max \|closed-form - quadrature\| "
                         r"(\S+), max half-grid estimate (\S+) over grids "
                         r"N\+ (\d+)-(\d+), N- (\d+)-(\d+)", line)
    assert match and float(match[2]) <= 1e-9
    # each axis's counts: odd, from the 65-node floor up
    plus_lo, plus_hi, minus_lo, minus_hi = map(int, match.groups()[2:])
    assert plus_lo == minus_lo == 65 and plus_hi % 2 == minus_hi % 2 == 1
    detail = next(row["detail"] for row in json.loads(report.read_text())
                  if row["check"] == "oracle-equivalence")
    assert line.endswith(detail)


def test_validate_fails_an_uncertified_oracle(monkeypatch):
    # values that agree with the closed form but carry a large estimate
    # fail the check: agreement is not taken on trust
    certified = validation.integrate_R_with_error
    monkeypatch.setattr(validation, "integrate_R_with_error",
                        lambda *args: (certified(*args)[0], 2e-6))
    passed, detail = validation._CHECKS["oracle-equivalence"](np.random.default_rng(0),
                                                              False)
    assert not passed
    assert "max half-grid estimate 2.00e-06 over grids N+ 65-" in detail


def test_validate_negative_control(tmp_path, capsys):
    report = str(tmp_path / "report.json")
    code = cli.main(["validate", "--negative-control", "swap-rule",
                     "--json", report])
    assert code == 1
    assert "FAIL swap-rule" in capsys.readouterr().out
    assert '"passed": false' in open(report).read()


@pytest.mark.parametrize("name", validation.CHECK_NAMES)
def test_every_check_fails_its_negative_control(name):
    # Every check passes clean and fails corrupted, on the same draws.
    check = validation._CHECKS[name]
    passed, detail = check(np.random.default_rng(0), False)
    assert passed is True
    failed, corrupted = check(np.random.default_rng(0), True)
    assert failed is False
    if name in ("transfer-unitarity", "oracle-equivalence", "envelope-bounds"):
        assert "1.00e+00" in corrupted  # the measure, raised by 1
    else:
        assert corrupted == detail


def test_figures_writes_complete_set(tmp_path):
    out = str(tmp_path / "figs")
    assert cli.main(["figures", "--out", out]) == 0
    csvs = sorted(p.name for p in (tmp_path / "figs").glob("*.csv"))
    assert len(csvs) == 18
    svgs = list((tmp_path / "figs").glob("*.svg"))
    assert len(svgs) == 18
    # the dip depends only on the difference-frequency linewidth, which the
    # anticorrelated and uncorrelated classes share
    a = (tmp_path / "figs" / "homi_anticorrelated.csv").read_bytes()
    c = (tmp_path / "figs" / "homi_uncorrelated.csv").read_bytes()
    assert a == c


def test_figures_determinism(tmp_path):
    assert cli.main(["figures", "--out", str(tmp_path / "one")]) == 0
    assert cli.main(["figures", "--out", str(tmp_path / "two")]) == 0
    for path in (tmp_path / "one").glob("*.csv"):
        assert path.read_bytes() == (tmp_path / "two" / path.name).read_bytes()


#: SHA-256 of every SVG ``figures`` writes, generated with the per-term
#: evaluate and the per-row SVG writer they replaced.  The CSVs are pinned
#: in ``golden_cli.json``.
FROZEN_FIGURES = {
    "homi_anticorrelated.svg": "dd94a930bd3146f80b8d05d0e2ec56af8ace519d3b3d978dfe5dce42a26d1961",
    "homi_correlated.svg": "8a33e84bc17c6fad495e0cae28ba288c71585e76cd818bf8f79090532789cc98",
    "homi_uncorrelated.svg": "964a1ced320f0664c20ff553f1d1c79361c13fecd579d845c1acc31b90e9bb6b",
    "noon_anticorrelated.svg": "360423addffafc7c44fdb9e460307c1d9c8f1950fe7acd44926a3ef4d35c1702",
    "noon_correlated.svg": "102b5985e2bea22d8d3bda986bda2362650fb12bad3ec65b60ea9ffff217da7f",
    "noon_uncorrelated.svg": "b8cd24c24f9cc1d05e72af6d0151c23e285a975e8b55acb7bc682e6961c8d37f",
    "three_param_11_anticorrelated.svg": "635eec502c8f9101655345f1d02c6cb42e46ca0959e01e2c94fea0bb4f5a719f",
    "three_param_11_correlated.svg": "3b3e8fbc95d2f8f8a652e0bfd264c3f5bfc197165617bd509b93f4751fb4ee52",
    "three_param_11_uncorrelated.svg": "71d6dc0b3bf13f10711f7923fa28be697760bfbd62cffa2ba35068992fc1e6d0",
    "three_param_2002_anticorrelated.svg": "095b92c84f519d29cddd7a0b352ff49b8e05f7e3d47f5487c811e08a1c9e5ba3",
    "three_param_2002_correlated.svg": "1fda8eeda663cd10a01afa91664f60d0b69d80ec7d6ca8d9a79b8d5de06cd8e2",
    "three_param_2002_uncorrelated.svg": "0e66110610e61c0541acad6b8c6525fa824e736a7e905ba9d458151267ba8dc8",
    "two_param_11_anticorrelated.svg": "0abbb1d765c54bc0b8c40ba7d5a005d6bda8cd8ecd1c3ac6078af536a0ceee78",
    "two_param_11_correlated.svg": "5254457b9d8c92c0eea49c3cc397c2a1713ea06792242f7ccc0ca1b59f4e300d",
    "two_param_11_uncorrelated.svg": "7ca924bffa2f5b3c43e94e768c9723fc4bd13817edaa7a524479557b028d358f",
    "two_param_2002_anticorrelated.svg": "666f8ce16e5037e901d00c44bb05b42d1ff9181336477b7190f4f57ab5b0e696",
    "two_param_2002_correlated.svg": "4e23475242d3022c39b930883fe982720cd5f8c6f6c28a111359b2c129169c05",
    "two_param_2002_uncorrelated.svg": "9463efcf1779e4bc53be138252fcf5b9a3adf46f5fafbb162783328e39b0f19f",
}


def test_frozen_figure_bytes(tmp_path):
    # Each figure's CSV is the file its config in configs/ writes under
    # ``envelope``, or under ``sweep`` for homi, which has no carrier.
    golden = json.loads(TABLE.read_text())
    expected = dict(FROZEN_FIGURES)
    for config in SHIPPED_CONFIGS:
        command = "sweep" if config.stem.startswith("homi") else "envelope"
        expected[f"{config.stem}.csv"] = golden[f"{config.stem} {command}"][1]
    assert cli.main(["figures", "--out", str(tmp_path)]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert written == expected


def test_figures_io_failure():
    assert cli.main(["figures", "--out", "/dev/null/figs"]) == 5


def test_binary_entry_point_runs(tmp_path):
    # exit-code contract is testable by invoking the module as a binary
    result = subprocess.run(
        [sys.executable, "-m", "biphoton_cascade.cli", "derive",
         "--config", str(tmp_path / "missing.cfg")],
        capture_output=True, text=True,
    )
    assert result.returncode == 5


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        version = tomllib.load(handle)["project"]["version"]
    assert biphoton_cascade.__version__ == version


# ---------------------------------------------------------------------------
# Config fuzz: any mutation of a working config ends in a documented exit

NUMBERS = ["1.0", "0", "-2", "nan", "inf", "1e-300", "1e300", "x", ""]
FUZZ_VALUES = {
    "cascade.preset": ["noon", "three_param_2002", "bogus", ""],
    "cascade.stages": ["-, 0, 1", "0, 0, 1, -", "-", "", "0, x", "2, 1, 0, 3",
                       "-1"],
    "cascade.n_delays": ["0", "2", "-1", "4", "40", "abc"],
    "cascade.input_delay": ["0", "1", "-1", "9", "z"],
    "spectrum.sigma_plus": NUMBERS,
    "spectrum.sigma_minus": NUMBERS + ["0.1"],
    "spectrum.symmetry": ["symmetric", "antisymmetric", "both"],
    "spectrum.pump_frequency": ["20", "5", "1e308", "-inf", ""],
    "sweep.swept": ["0", "1", "2", "-1", "q"],
    "sweep.fixed.0": ["0", "5.0", "-8.0", "1e200", "-1e308", "nan", "x"],
    "sweep.fixed.1": ["0", "3.5", "1e200"],
    "sweep.start": ["-60", "0", "60", "1e300", "x"],
    "sweep.stop": ["60", "-60", "0", "1e-300", "inf"],
    "sweep.samples": ["401", "0", "1", "2", "-3", "2.5", "1e3", "100000000000"],
    "prune.threshold": ["1e-6", "0", "-1", "nan", "x"],
    "grid.nodes": ["64", "0", "-4", "100000", "x"],
    "backend": ["analytic", "fourier", ""],
}
SHIPPED_CONFIGS = sorted(CONFIGS.glob("*.cfg"))
FUZZ_COMMANDS = [["derive"], ["derive", "--prune", "--latex"], ["sweep"],
                 ["envelope"], ["reconstruct"]]
MISSPELLED = ["sweep.sampels = 5", "spectrum.sigma_plsu = 3", "backnd = analytic"]
WIDE_GRID = "grid.nodes = 256\ngrid.extent = 1e5"
REFUSED_LINES = [*MISSPELLED, WIDE_GRID]


@st.composite
def fuzzed_configs(draw):
    """A shipped config with up to five keys dropped or given odd values."""
    text = draw(st.sampled_from(SHIPPED_CONFIGS)).read_text()
    values = dict(line.split(" = ") for line in text.splitlines()
                  if not line.startswith("#"))
    for key in draw(st.lists(st.sampled_from(sorted(FUZZ_VALUES)), max_size=5,
                             unique=True)):
        if draw(st.booleans()):
            values.pop(key, None)
        else:
            values[key] = draw(st.sampled_from(FUZZ_VALUES[key]))
    lines = [f"{key} = {value}" for key, value in values.items()]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["no equals sign", "# comment", "= 1",
                                           "sweep.fixed.x = 1", *REFUSED_LINES])))
    return "\n".join(lines) + "\n"


@given(text=fuzzed_configs(), command=st.sampled_from(FUZZ_COMMANDS))
@settings(max_examples=150, deadline=None)
def test_fuzzed_configs_end_in_documented_exit_codes(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main([*command, "--config", str(path),
                             "--out", str(Path(tmp) / "out.csv")])
    assert code in {0, 2, 3, 4, 5}, err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code in {2, 4, 5}:
        assert err.getvalue().endswith("\n") and err.getvalue().count("\n") == 1, \
            err.getvalue()
    if any(line in text for line in REFUSED_LINES):
        assert code == 2, err.getvalue()
