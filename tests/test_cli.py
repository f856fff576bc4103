import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import stacky
from stacky import census, cli
from stacky.census import enumerate_cyclic, enumerate_mu
from stacky.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_import_builds_no_numpy_arrays():
    # the package and the CLI sieve nothing at import: in a fresh interpreter
    # numpy's array constructors raise, and both imports still succeed
    code = """
import numpy as np
def refuse(*args, **kwargs):
    raise AssertionError("numpy array built at import")
np.zeros = np.ones = np.arange = refuse
import stacky, stacky.cli
"""
    src = str(pathlib.Path(stacky.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_out_process_pools():
    # only a streamed ladder with jobs > 1 needs concurrent.futures, and with
    # it multiprocessing and socket: importing the package and the CLI loads none
    code = """
import sys
import stacky, stacky.cli
assert "concurrent.futures" not in sys.modules, "concurrent.futures imported"
"""
    src = str(pathlib.Path(stacky.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_malle_a(capsys):
    code, out, _ = run(capsys, "malle", "a", "--group", "preset:cyclic_regular:6")
    assert code == 0
    assert out.strip() == "1/3"
    obj = run_json(capsys, "malle", "a", "--group", "cyclic_regular:6", "--json")
    assert obj == {"a": "1/3", "min_index": 3}


def test_malle_b(capsys):
    code, out, _ = run(capsys, "malle", "b", "--group", "cyclic_regular:9",
                       "--field", "Q(zeta_3)")
    assert code == 0
    assert out.strip() == "2"
    obj = run_json(capsys, "malle", "b", "--group", "kluners_c3wrc2",
                   "--field", "Q(zeta_3)", "--json")
    assert obj["a"] == "1/2"
    assert obj["b"] == 2
    assert len(obj["orbits"]) == 2


def test_malle_raw_generators(capsys):
    code, out, _ = run(capsys, "malle", "a", "--group",
                       "(1 2 3); (4 5 6); (1 4)(2 5)(3 6)")
    assert code == 0
    assert out.strip() == "1/2"
    # a single product generator gives the regular C6 instead
    code, out, _ = run(capsys, "malle", "a", "--group",
                       "(1 2 3)(4 5 6); (1 4)(2 5)(3 6)")
    assert code == 0
    assert out.strip() == "1/3"


@pytest.mark.parametrize("spec", ["(1 2 0)", "(1 1 2)", "deg=2; (1 2 3)", "(1 -2)"])
def test_malle_bad_points_are_domain_errors(capsys, spec):
    code, out, err = run(capsys, "malle", "a", "--group", spec)
    assert code == 1 and out == ""
    assert err.startswith("error: point ")


def test_malle_units_field(capsys):
    code, out, _ = run(capsys, "malle", "b", "--group", "cyclic_regular:9",
                       "--field", "units:9:1")
    assert code == 0
    assert out.strip() == "2"


def test_malle_units_field_modulus_is_the_exponent(capsys):
    # units:m:g... reads the generators mod m, which must be G's exponent
    code, _, err = run(capsys, "malle", "b", "--group", "cyclic_regular:6",
                       "--field", "units:99:5")
    assert code == 1
    assert "exponent 6" in err


@pytest.mark.parametrize("field,msg", [("units:6:5:7", "cannot parse field"),
                                       ("units:x:5", "cannot parse field"),
                                       ("units:6:5,y", "cannot parse field"),
                                       ("Q(zeta_x)", "cannot parse field"),
                                       ("zeta:6:5", "cannot parse field"),
                                       ("Q(zeta_0)", "Q(zeta_0)"),
                                       ("Q(zeta_-3)", "Q(zeta_-3)")])
def test_malle_bad_fields_are_domain_errors(capsys, field, msg):
    # a field that does not parse, or names no cyclotomic field, is a
    # domain error naming it, not an unpacking or int() message
    code, out, err = run(capsys, "malle", "b", "--group", "cyclic_regular:6", "--field", field)
    assert code == 1 and not out
    assert err.startswith("error: ") and msg in err


def test_malle_preset_errors_reach_the_user(capsys):
    # a spec led by a preset name is never re-read as cycle notation
    code, out, err = run(capsys, "malle", "a", "--group", "symmetric:9")
    assert code == 1 and not out
    assert "symmetric supports 2 <= n <= 8" in err


def test_kummer_disc(capsys):
    obj = run_json(capsys, "kummer", "disc", "--n", "3", "--a", "5", "--json")
    assert obj["value"] == 675
    assert obj["exactness"] == "exact"
    obj = run_json(capsys, "kummer", "disc", "--n", "4", "--a", "6",
                   "--mode", "interval", "--json")
    assert obj["value_interval"][0] == 27


def test_kummer_irred(capsys):
    obj = run_json(capsys, "kummer", "irred", "--n", "2", "--a", "8", "--json")
    assert obj == {"n": 2, "a": 2, "irreducible": True}


def test_kummer_exact_mode_domain_error(capsys):
    code, out, err = run(capsys, "kummer", "disc", "--n", "5", "--a", "7")
    assert code == 1
    assert "error" in err


def test_kummer_disc_past_the_factor_limit(capsys):
    # the product of a 47- and a 48-bit prime: factor's rho gives up
    a = 22282920707145394750601822923
    code, out, err = run(capsys, "kummer", "disc", "--n", "2", "--a", str(a))
    assert code == 1 and not out
    assert "cannot factor a 95-bit cofactor" in err


def test_height_commands(capsys):
    obj = run_json(capsys, "height", "eszb", "--n", "2", "--a", "3", "--json")
    assert math.isclose(obj["log_value"], math.log(12) / 2)
    obj = run_json(capsys, "height", "eszb", "--n", "2", "--a", "3",
                   "--log10", "--json")
    assert math.isclose(obj["log_value"], math.log10(12) / 2)
    obj = run_json(capsys, "height", "darda", "--n", "3", "--a", "10", "--json")
    assert obj["exact_form"] == {"base": 300, "power": "1/6"}
    obj = run_json(capsys, "height", "raising", "--n", "2", "--a", "6", "--json")
    assert obj["exact_form"]["base"] == 24
    obj = run_json(capsys, "height", "darda", "--n", "4", "--a", "6",
                   "--mode", "interval", "--json")
    assert len(obj["log_value_interval"]) == 2


def test_sectors(capsys):
    obj = run_json(capsys, "sectors", "--n", "9", "--json")
    assert obj["min_index"] == 6
    assert obj["a_c"] == "1/6"
    assert obj["b_c"] == 2
    assert obj["sectors"]["3"] == 6


def test_eszb_a(capsys):
    obj = run_json(capsys, "eszb-a", "--n", "4", "--json")
    assert obj["a"] == "1/1"
    obj = run_json(capsys, "eszb-a", "--n", "4", "--witness", "0.9", "10", "--json")
    assert obj["witness"]["D"] < 0


def test_census_and_fit(capsys, tmp_path):
    path = tmp_path / "ladder.csv"
    code, _, _ = run(capsys, "census", "--target", "mu:2", "--counter", "T",
                     "--B0", "1e3", "--Bmax", "2.62144e8", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "B,count"
    assert len(lines) == 20
    obj = run_json(capsys, "fit", "--in", str(path), "--json")
    assert abs(obj["alpha"] - 1.0) < 0.03
    assert abs(obj["beta"]) < 0.15


def test_census_stdout(capsys):
    code, out, _ = run(capsys, "census", "--target", "mu:3", "--counter", "T",
                       "--B0", "10", "--Bmax", "1e4", "--order", "exact")
    assert code == 0
    assert out.splitlines()[0] == "B,count"


@pytest.mark.parametrize("target,counter,order", [
    ("cyclic:3", "M", "exact"),
    ("mu:4", "T", "tame"),
])
def test_census_fast_routes_print_streamed_counts(capsys, target, counter, order):
    code, out, _ = run(capsys, "census", "--target", target, "--counter", counter,
                       "--order", order, "--B0", "1e3", "--Bmax", "1e6")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 11
    for b, c in rows:
        if target == "cyclic:3":
            want = sum(1 for _ in enumerate_cyclic(3, float(b)))
        else:
            want = sum(1 for _ in enumerate_mu(4, float(b), "disc_tame"))
        assert int(c) == want, (b, c, want)


def test_fit_empty_csv_exits_1(capsys, tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code, out, err = run(capsys, "fit", "--in", str(path))
    assert code == 1
    assert "error" in err and "B,count" in err and not out


@pytest.mark.parametrize("text,line", [
    ("B,count\n1000.0,5\n\n2000.0,9\n", 3),
    ("B,count\n1000.0,5\n2000.0\n", 3),
])
def test_fit_short_csv_row_exits_1(capsys, tmp_path, text, line):
    # a blank line or a one-field row is named, not an IndexError traceback
    path = tmp_path / "short.csv"
    path.write_text(text)
    code, out, err = run(capsys, "fit", "--in", str(path))
    assert code == 1
    assert err.startswith("error:") and f"line {line}" in err and not out


@pytest.mark.parametrize("text,line", [
    pytest.param("B,count\nnan,5\n" + "".join(f"{2.0**i},{i}\n" for i in range(1, 10)), 2,
                 id="nan-first"),
    pytest.param("B,count\n" + "".join(f"{2.0**i},{i}\n" if i != 8 else "nan,8\n"
                                        for i in range(1, 12)), 9, id="nan-in-window"),
    pytest.param("B,count\n1.0,1\ninf,2\n", 3, id="inf"),
    pytest.param("B,count\n0.0,1\n1.0,2\n", 2, id="zero"),
    pytest.param("B,count\n-2.0,1\n1.0,2\n", 2, id="negative-B"),
    pytest.param("B,count\n1.0,1\n2.0,-2\n", 3, id="negative-count"),
])
def test_fit_bad_b_or_count_exits_1(capsys, tmp_path, text, line):
    # NaN compares false with everything, so a rising-B test alone lets it
    # through: as the first row it fitted, inside the window LAPACK failed
    path = tmp_path / "bad.csv"
    path.write_text(text)
    code, out, err = run(capsys, "fit", "--in", str(path))
    assert code == 1
    assert err.startswith("error:") and f"line {line}" in err and not out


@pytest.mark.parametrize("argv,name", [
    (["fit", "--in", "{tmp}/missing.csv"], "missing.csv"),
    (["--config", "{tmp}/missing.cfg", "kummer", "disc", "--n", "2", "--a", "3"], "missing.cfg"),
    (["census", "--target", "mu:2", "--Bmax", "1e4", "--out", "{tmp}/no_dir/l.csv"], "l.csv"),
])
def test_unreadable_or_unwritable_file_exits_1(capsys, tmp_path, argv, name):
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1
    assert err.startswith("error: ") and name in err and not out


def test_census_bad_target(capsys):
    code, _, err = run(capsys, "census", "--target", "weird:3")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("order", ["darda", "tame"])
def test_census_cyclic_rejects_orderings_it_cannot_measure(capsys, order):
    # cyclic fields are counted by |disc| alone
    code, out, err = run(capsys, "census", "--target", "cyclic:3", "--counter", "M",
                         "--order", order, "--B0", "1e3", "--Bmax", "8e3")
    assert code == 1 and not out
    assert "cyclic:3" in err and "ordering" in err


@pytest.mark.parametrize("b0,bmax", [("0", "1e4"), ("-5", "1e4"), ("1e4", "1e3"), ("1e3", "inf")])
def test_census_rejects_bad_bounds(capsys, b0, bmax):
    code, out, err = run(capsys, "census", "--target", "mu:2", "--B0", b0, "--Bmax", bmax)
    assert code == 1
    assert "B0" in err and not out


def test_census_bmax_equal_to_b0_prints_one_rung(capsys):
    code, out, _ = run(capsys, "census", "--target", "mu:3", "--B0", "1e3", "--Bmax", "1e3")
    assert code == 0
    assert out.splitlines() == ["B,count", f"1000.0,{sum(1 for _ in enumerate_mu(3, 1e3))}"]


def test_census_infeasible_sieve_exits_1(capsys, no_numpy_alloc):
    # mu_3 darda to 8192 needs the primes up to 7.5e11
    code, out, err = run(capsys, "census", "--target", "mu:3", "--order", "darda",
                         "--B0", "8192", "--Bmax", "8192")
    assert code == 1
    assert "sieve limit" in err


def test_census_darda_cap_past_the_float_range_exits_1(capsys):
    # mu_7 darda to 1e8 puts the |disc| cap near B^42, past 2^1023
    code, out, err = run(capsys, "census", "--target", "mu:7", "--order", "darda",
                         "--B0", "1e3", "--Bmax", "1e8")
    assert code == 1 and not out
    assert err.startswith("error: ") and "2^1023" in err and "Traceback" not in err


def test_stacky_jobs_env(capsys, monkeypatch):
    seen = []
    real_count = census.count
    monkeypatch.setattr(census, "count", lambda spec: seen.append(spec.jobs) or real_count(spec))
    monkeypatch.setenv("STACKY_JOBS", "3")
    for flags in ([], ["--jobs", "1"]):
        code, _, _ = run(capsys, "census", "--target", "mu:2", "--Bmax", "1e4", *flags)
        assert code == 0
    assert seen == [3, 1]
    # a bad value is a usage error of census alone
    monkeypatch.setenv("STACKY_JOBS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["census", "--target", "mu:2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    obj = run_json(capsys, "kummer", "disc", "--n", "3", "--a", "5", "--json")
    assert obj["value"] == 675


def test_parser_built_once_per_jobs_env(capsys, monkeypatch):
    built = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real_build())
    cli._parser.cache_clear()
    try:
        for jobs in ("2", "2", "2", "5", "2"):
            monkeypatch.setenv("STACKY_JOBS", jobs)
            obj = run_json(capsys, "kummer", "disc", "--n", "3", "--a", "5", "--json")
            assert obj["value"] == 675
        assert len(built) == 2
    finally:
        cli._parser.cache_clear()


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["malle", "c", "--group", "cyclic_regular:6"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "stacky.cfg"
    cfg.write_text("# defaults\nmode = tame\n")
    obj = run_json(capsys, "--config", str(cfg), "kummer", "disc",
                   "--n", "4", "--a", "6", "--json")
    assert obj["value"] == 27  # tame mode from the config file
    obj = run_json(capsys, "--config", str(cfg), "kummer", "disc",
                   "--n", "4", "--a", "6", "--mode", "interval", "--json")
    assert "value_interval" in obj  # explicit flag wins over the config
    obj = run_json(capsys, "--config", str(cfg), "kummer", "disc",
                   "--n", "4", "--a", "6", "--mode=interval", "--json")
    assert "value_interval" in obj  # so does its --flag=value spelling
    cfg.write_text("json = false\nmode = tame\nno_such_key = 1\n")
    code, out, _ = run(capsys, f"--config={cfg}", "kummer", "disc", "--n", "4", "--a", "6")
    assert code == 0 and "value: 27" in out  # false leaves --json off
    cfg.write_text("json = true\nmode = tame\n")
    obj = run_json(capsys, "--config", str(cfg), "kummer", "disc", "--n", "4", "--a", "6")
    assert obj["value"] == 27
    for bad in ("order = bogus", "counter = X", "jobs = two"):
        cfg.write_text(bad + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "census", "--target", "mu:2", "--Bmax", "1e4"])
        assert exc.value.code == 2, bad
