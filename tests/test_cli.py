import json
import math
import os
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from primearcs import expsums, primes
from primearcs.cli import build_parser, load_instance, main
from primearcs.errors import ValidationError
from primearcs.primes import build_table, load_table, save_table


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables") / "t.bin"
    save_table(build_table(5000), str(path))
    return str(path)


def write_instance(tmp_path, text, name="inst.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GOOD_INSTANCE = """
# acceptance-style instance
lambda1 = 1
lambda2 = -sqrt(2)
lambda3 = -1
k = 1.05
varpi = 0
eps = 0.01
delta = 0.1
"""


class TestInstanceParsing:
    def test_valid(self, tmp_path):
        inst = load_instance(write_instance(tmp_path, GOOD_INSTANCE))
        assert inst.lambda2 == pytest.approx(-math.sqrt(2))
        assert inst.k == 1.05

    def test_same_sign_rejected(self, tmp_path):
        cfg = "lambda1=1\nlambda2=2\nlambda3=3\nk=1.05\n"
        with pytest.raises(ValidationError, match="sign"):
            load_instance(write_instance(tmp_path, cfg))

    def test_one_sign_search_is_2(self, tmp_path, table_file, capsys):
        # the instance has the solution (17, 3, 11); the refusal says one
        # sign allows at most finitely many, not that there are none
        cfg = "lambda1=1\nlambda2=1\nlambda3=1\nk=1.1\nvarpi=-40\n"
        assert main(["search", "--instance", write_instance(tmp_path, cfg),
                     "--table", table_file, "--X", "60",
                     "--threshold", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "sign" in err and "finitely many" in err
        assert "no solutions" not in err

    def test_zero_coefficient_rejected(self, tmp_path):
        cfg = "lambda1=1\nlambda2=0\nlambda3=-3\nk=1.05\n"
        with pytest.raises(ValidationError, match="nonzero"):
            load_instance(write_instance(tmp_path, cfg))

    def test_missing_field_named(self, tmp_path):
        cfg = "lambda1=1\nlambda2=-1\nk=1.05\n"
        with pytest.raises(ValidationError, match="lambda3"):
            load_instance(write_instance(tmp_path, cfg))

    def test_k_out_of_range_warns_not_errors(self, tmp_path, capsys):
        cfg = "lambda1=1\nlambda2=-1\nlambda3=1\nk=2\n"
        inst = load_instance(write_instance(tmp_path, cfg))
        assert inst.k == 2.0
        assert "outside" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("varpi", 0.7), ("eps", 0.02),
                                           ("delta", 0.5)])
    def test_optional_key_is_read(self, tmp_path, key, value):
        # the correctly spelt optional keys replace their defaults
        cfg = "lambda1=1\nlambda2=-sqrt(2)\nlambda3=-1\nk=1.05\n"
        inst = load_instance(write_instance(tmp_path,
                                            cfg + f"{key} = {value}\n"))
        assert getattr(inst, key) == value

    @pytest.mark.parametrize("line", ["vapri = 0.7", "delat = 0.5",
                                      "lambda_ratio = -1/sqrt(2)"])
    def test_unknown_key_is_2(self, tmp_path, table_file, line, capsys):
        # a misspelt key used to load silently with the default value
        path = write_instance(tmp_path, GOOD_INSTANCE + line + "\n")
        key = line.split(" =")[0]
        with pytest.raises(ValidationError, match=f"unknown key '{key}'"):
            load_instance(path)
        assert main(["search", "--instance", path, "--table", table_file,
                     "--X", "150"]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err


class TestSubcommands:
    def test_sieve_roundtrip(self, tmp_path):
        out = tmp_path / "p.bin"
        assert main(["sieve", "--limit", "1000", "--out", str(out)]) == 0
        from primearcs.primes import load_table
        assert load_table(str(out)).count == 168

    @pytest.mark.parametrize("segment", ["0", "-1"])
    def test_sieve_has_no_segment_option(self, tmp_path, segment):
        # --segment 0 made build_table loop forever and a negative one
        # raised a numpy traceback; the option is gone, so argparse
        # refuses it with exit 2 before anything runs
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sieve", "--limit", "1000", "--out",
                                       str(tmp_path / "p.bin"),
                                       "--segment", segment])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify-all", "--tol-scale", "0.1"],
        ["verify-all", "--table-limit", "1e5"],
        ["arcs", "--instance", "i.cfg", "--table", "t.bin", "--X", "150",
         "--eta", "0.5"]])
    def test_deleted_options_are_refused(self, argv):
        # --tol-scale could only loosen a gate or fail by construction,
        # --table-limit below 1.05e6 broke the run, and arcs --eta put two
        # etas in one JSON; argparse refuses each with exit 2
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("C", ["0", "2.4"])
    def test_meansquare_has_no_C_option(self, table_file, C):
        # --C 0 died with a ZeroDivisionError traceback (exit 1); nothing
        # set another value than 12/5, now meansquare.C_DENSITY
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["meansquare", "--table", table_file,
                                       "--X", "1e4", "--k", "2", "--h", "500",
                                       "--C", C])
        assert exc.value.code == 2

    def test_expsum_csv(self, tmp_path, table_file):
        out = tmp_path / "s.csv"
        rc = main(["expsum", "--table", table_file, "--X", "100", "--k", "2",
                   "--alpha-grid", "0:1:5", "--which", "S", "--out", str(out)])
        assert rc == 0
        lines = Path(out).read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "alpha,re,im,abs"
        first = [l for l in lines if not l.startswith("#")][1].split(",")
        assert float(first[1]) == pytest.approx(math.log(11) + math.log(13))

    def test_expsum_deterministic(self, tmp_path, table_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for k, grid, which in (("1.05", "0:2:17", "S"), ("1", "0:1:40", "S"),
                               ("1.05", "0:2:17", "U")):
            args = ["expsum", "--table", table_file, "--X", "200", "--k", k,
                    "--alpha-grid", grid, "--which", which]
            assert main(args + ["--out", str(a)]) == 0
            assert main(args + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_expsum_table_only_for_S(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["expsum", "--X", "100", "--k", "1.05", "--alpha-grid",
                     "0:0.1:3", "--which", "T", "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 1 + 3
        assert main(["expsum", "--X", "100", "--k", "1", "--alpha-grid",
                     "0:1:3", "--which", "S"]) == 2
        assert "--table" in capsys.readouterr().err

    def test_expsum_rows_parse_as_floats(self, tmp_path, table_file):
        out = tmp_path / "e.csv"
        for which in "SUT":
            assert main(["expsum", "--table", table_file, "--X", "100",
                         "--k", "1.05", "--alpha-grid", "0:0.1:3",
                         "--which", which, "--out", str(out)]) == 0
            rows = [l for l in out.read_text().splitlines()
                    if not l.startswith("#")][1:]
            assert len(rows) == 3
            for row in rows:
                assert len([float(v) for v in row.split(",")]) == 4

    def test_meansquare_meta_est_error(self, tmp_path, table_file):
        out = tmp_path / "m.csv"
        cases = ((["--h", "10"], "piecewise-exact"),
                 (["--Y", "0.5"], "pairwise-exact"), (["--Y", "0.002"], "grid"))
        for extra, method in cases:
            assert main(["meansquare", "--table", table_file, "--X", "1000",
                         "--k", "1.05", "--out", str(out)] + extra) == 0
            lines = out.read_text().splitlines()
            meta = dict(l[2:].split("=", 1) for l in lines if l.startswith("# "))
            assert lines[-1].split(",")[-1] == method
            if method == "grid":
                assert 0.0 <= float(meta["est_error"]) < 1e-6
            else:
                assert meta["est_error"] == "None"

    def test_expsum_T_meta_est_error(self, tmp_path):
        # the largest error bound over the alpha grid, within tol
        out = tmp_path / "t.csv"
        for tol in (1e-9, 1e-11):
            assert main(["expsum", "--X", "1e4", "--k", "1.05",
                         "--alpha-grid=-0.05:0.1:4", "--which", "T",
                         "--tol", str(tol), "--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            meta = dict(l[2:].split("=", 1) for l in lines if l.startswith("# "))
            assert 0.0 <= float(meta["est_error"]) <= tol

    def test_meansquare_csv(self, tmp_path, table_file):
        out = tmp_path / "m.csv"
        rc = main(["meansquare", "--table", table_file, "--X", "100", "--k",
                   "1", "--h", "10", "--out", str(out)])
        assert rc == 0
        data = [l for l in Path(out).read_text().splitlines()
                if not l.startswith("#")]
        assert data[0] == "X,k,param,value,comparator,ratio,method"
        assert float(data[1].split(",")[3]) == pytest.approx(1767.957276, rel=1e-8)

    def test_meansquare_below_e(self, tmp_path, table_file):
        # no unconditional comparator at X <= e: the value with ratio inf,
        # and the comparator's note in the metadata
        out = tmp_path / "m.csv"
        assert main(["meansquare", "--table", table_file, "--X", "2.5", "--k",
                     "1", "--h", "1", "--out", str(out)]) == 0
        lines = Path(out).read_text().splitlines()
        row = lines[-1].split(",")
        assert float(row[3]) >= 0 and row[4:6] == ["0.0", "inf"]
        assert "# note=comparator-out-of-range" in lines

    def test_approx_json_roundtrip(self, tmp_path):
        out = tmp_path / "cf.json"
        rc = main(["approx", "--lambda-ratio", "sqrt(2)", "--terms", "6",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(Path(out).read_text())
        assert [c["q"] for c in payload["convergents"]] == [1, 2, 5, 12, 29, 70]
        again = json.loads(json.dumps(payload))
        assert again == payload

    def test_approx_negative_ratio(self, tmp_path):
        # "--lambda-ratio -sqrt(2)" reads the value as an option (exit 2);
        # written with "=" it is the value
        out = tmp_path / "cf.json"
        assert main(["approx", "--lambda-ratio=-sqrt(2)", "--terms", "3",
                     "--out", str(out)]) == 0
        payload = json.loads(Path(out).read_text())
        assert [(c["a"], c["q"]) for c in payload["convergents"]] == [
            (-2, 1), (-1, 1), (-3, 2)]

    def test_search_auto_threshold(self, tmp_path, table_file):
        inst = write_instance(tmp_path, GOOD_INSTANCE)
        out = tmp_path / "sol.csv"
        rc = main(["search", "--instance", inst, "--table", table_file,
                   "--X", "500", "--threshold", "0.5", "--out", str(out)])
        assert rc == 0
        rows = [l for l in Path(out).read_text().splitlines()
                if not l.startswith("#")]
        assert rows[0] == "p1,p2,p3,residual"
        assert len(rows) > 1

    def test_search_exponent_form_instance(self, tmp_path, table_file):
        # 2.5e-1 and 105e-2 are the same decimal literals as 0.25 and 1.05
        csvs = []
        for lam1, k in (("0.25", "1.05"), ("2.5e-1", "105e-2")):
            cfg = (f"lambda1 = {lam1}\nlambda2 = -sqrt(2)/4\nlambda3 = -1/4\n"
                   f"k = {k}\n")
            out = tmp_path / f"{lam1}.csv"
            assert main(["search", "--instance",
                         write_instance(tmp_path, cfg, f"{lam1}.cfg"),
                         "--table", table_file, "--X", "150",
                         "--out", str(out)]) == 0
            csvs.append(out.read_text())
        assert csvs[0] == csvs[1]
        assert len(csvs[0].splitlines()) > 10

    def test_search_meta_reports_join(self, tmp_path, table_file):
        inst = write_instance(tmp_path, GOOD_INSTANCE)
        out = tmp_path / "sol.csv"
        assert main(["search", "--instance", inst, "--table", table_file,
                     "--X", "500", "--threshold", "0.5", "--out", str(out)]) == 0
        meta = dict(l[2:].split("=", 1) for l in Path(out).read_text().splitlines()
                    if l.startswith("# "))
        table = load_table(table_file)
        n1 = len(table.primes_in_range(50, 500))
        n2 = len(table.primes_in_range(math.sqrt(50), math.sqrt(500)))
        n3 = len(expsums.window(1.05, 50.0, 500.0, table)[0])
        # the join pairs each p2 with each p3 and re-checks prime p1 values
        assert int(meta["pairs"]) == n2 * n3
        assert 0 < int(meta["count"]) <= int(meta["candidates"])
        assert int(meta["candidates"]) < n1 * n2
        assert meta["truncated"] == "False"

    def test_arcs_json(self, tmp_path, table_file):
        inst = write_instance(tmp_path, GOOD_INSTANCE)
        out = tmp_path / "arcs.json"
        rc = main(["arcs", "--instance", inst, "--table", table_file,
                   "--X", "150", "--piece", "trivial", "--out", str(out)])
        assert rc == 0
        payload = json.loads(Path(out).read_text())
        assert "params" in payload and "trivial" in payload
        assert payload["params"]["R"] > payload["params"]["P"] / 150
        # each tail's first sliced integer and its slice count
        for key in ("start", "slices"):
            values = payload["trivial"][key]
            assert len(values) == 3, key
            assert all(isinstance(v, int) and v > 0 for v in values), key

    def test_exponents_json(self, tmp_path):
        out = tmp_path / "e.json"
        assert main(["exponents", "--k", "11/10", "--out", str(out)]) == 0
        payload = json.loads(Path(out).read_text())
        assert payload["solution"]["inv_a"] == "52/99"
        assert payload["solution"]["b"] == "47/198"
        assert payload["solution"]["c"] == "1/72"
        assert payload["closed_form_check"]["ok"]


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path):
        cfg = write_instance(tmp_path, "lambda1=1\nlambda2=2\nlambda3=3\nk=1\n")
        assert main(["search", "--instance", cfg, "--table", "/nonexistent",
                     "--X", "100"]) == 2

    def test_missing_instance_is_2(self):
        assert main(["search", "--instance", "/no/such/file",
                     "--table", "/none", "--X", "100"]) == 2

    def test_unreadable_table_is_2(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read prime table"):
            load_table(str(tmp_path / "missing.bin"))
        for path in (tmp_path / "missing.bin", tmp_path):
            assert main(["expsum", "--table", str(path), "--X", "100",
                         "--k", "1", "--alpha-grid", "0:1:3", "--which", "S"]) == 2

    def test_oversized_integer_window_is_4(self, capsys):
        tracemalloc.start()
        try:
            rc = main(["expsum", "--X", "1e15", "--k", "1", "--which", "U",
                       "--alpha-grid", "0:1:2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 4
        assert "budget" in capsys.readouterr().err
        assert peak < 1 << 20

    @pytest.mark.parametrize("piece", ["T", "all", "trivial"])
    def test_nan_tol_is_2_at_once(self, tmp_path, table_file, piece, capsys):
        # the CLI refuses a nan tol as it parses it; the library's own
        # guard is test_circle.py::test_nan_tol_rejected_at_once
        if piece == "T":
            argv = ["expsum", "--X", "1e3", "--k", "1.05", "--alpha-grid",
                    "0:0.1:2", "--which", "T", "--tol", "nan"]
        else:
            argv = ["arcs", "--instance", write_instance(tmp_path, GOOD_INSTANCE),
                    "--table", table_file, "--X", "150", "--piece", piece,
                    "--tol", "nan"]
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "--tol: not a finite number: 'nan'" in capsys.readouterr().err

    def test_stalled_quadrature_is_3(self, capsys):
        # alpha = 0 is exact; at 0.1 T's error bound is above tol 1e-16
        assert main(["expsum", "--X", "1e3", "--k", "1.05", "--alpha-grid",
                     "0:0.1:2", "--which", "T", "--tol", "1e-16"]) == 3
        assert "error bound" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--h", "5", "--Y", "0.1"], []])
    def test_meansquare_needs_one_increment(self, table_file, extra, capsys):
        # MeanSquareQuery checks it; the CLI does not repeat the check
        assert main(["meansquare", "--table", table_file, "--X", "100",
                     "--k", "1"] + extra) == 2
        assert "exactly one of h, rel_delta, Y" in capsys.readouterr().err

    def test_truncated_table_header_is_2(self, tmp_path, capsys):
        path = tmp_path / "short.bin"
        path.write_bytes(primes._MAGIC + bytes(3))
        assert main(["expsum", "--table", str(path), "--X", "100", "--k", "1",
                     "--alpha-grid", "0:1:3", "--which", "S"]) == 2
        assert "truncated header" in capsys.readouterr().err

    @pytest.mark.parametrize("head,code,message", [
        (b"NOPE" + bytes(16), 2, "bad magic"),
        (primes._MAGIC + bytes(9), 2, "truncated header"),
        (primes._MAGIC + struct.pack("<QQ", 5000, 668), 2, "the sieve finds"),
        (primes._MAGIC + struct.pack("<QQ", 10**12, 0), 4, "budget")])
    def test_bad_table_header(self, tmp_path, head, code, message, capsys):
        # the header's limit comes from outside: past the budget it is
        # refused before the sieve allocates anything
        path = tmp_path / "t.bin"
        path.write_bytes(head)
        argv = ["search", "--instance", write_instance(tmp_path, GOOD_INSTANCE),
                "--table", str(path), "--X", "150"]
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == code
        assert message in capsys.readouterr().err
        assert peak < 1 << 20

    @pytest.mark.parametrize("command,flags", [
        ("expsum", {"--alpha-grid": "0:x:3"}),
        ("expsum", {"--alpha-grid": "0:1:2.5"}),
        ("expsum", {"--X": "abc"}),
        ("expsum", {"--k": "abc"}),
        ("meansquare", {"--X": "abc"}),
        ("meansquare", {"--k": "1/2"}),
        ("sieve", {"--limit": "abc"}),
        ("sieve", {"--limit": "inf"}),
        ("search", {"--X": "abc"}),
        ("search", {"--threshold": "abc"}),
        ("arcs", {"--X": "abc"}),
        ("exponents", {"--k": "abc"}),
        ("exponents", {"--k": "1/0"})])
    def test_malformed_number_is_2(self, tmp_path, table_file, command, flags,
                                   capsys):
        base = {"expsum": {"--X": "100", "--k": "1", "--alpha-grid": "0:1:3",
                           "--which": "U"},
                "meansquare": {"--table": table_file, "--X": "100", "--k": "1",
                               "--h": "5"},
                "sieve": {"--out": str(tmp_path / "p.bin")},
                "search": {"--table": table_file, "--X": "150"},
                "arcs": {"--table": table_file, "--X": "150"},
                "exponents": {}}[command]
        if command in ("search", "arcs"):
            base["--instance"] = write_instance(tmp_path, GOOD_INSTANCE)
        argv = [command] + [a for kv in {**base, **flags}.items() for a in kv]
        assert main(argv) == 2
        assert "not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flags", [
        ("meansquare", {"--h": "nan"}),
        ("meansquare", {"--X": "nan"}),
        ("meansquare", {"--k": "nan"}),
        ("meansquare", {"--h": None, "--rel-delta": "inf"}),
        ("meansquare", {"--h": None, "--Y": "nan"}),
        ("expsum", {"--X": "nan"}),
        ("expsum", {"--delta": "nan"}),
        ("expsum", {"--alpha-grid": "0:nan:3"}),
        ("expsum", {"--which": "T", "--tol": "inf"}),
        ("search", {"--X": "nan"}),
        ("search", {"--threshold": "nan"}),
        ("search", {"--threshold": "inf"}),
        ("search", {"varpi": "nan"}),
        ("search", {"eps": "nan"}),
        ("arcs", {"varpi": "nan"}),
        ("arcs", {"--tol": "inf"})])
    def test_non_finite_number_is_2(self, tmp_path, table_file, command,
                                    flags, capsys):
        # nan and inf parsed as floats: some commands printed rows of nan
        # or count=0 with exit 0, others raised a traceback
        base = {"expsum": {"--X": "100", "--k": "1", "--alpha-grid": "0:1:3",
                           "--which": "U"},
                "meansquare": {"--table": table_file, "--X": "100", "--k": "1",
                               "--h": "5"},
                "search": {"--table": table_file, "--X": "150"},
                "arcs": {"--table": table_file, "--X": "150"}}[command]
        args = {**base, **flags}
        if command in ("search", "arcs"):
            cfg = GOOD_INSTANCE
            for field in ("varpi", "eps"):
                if field in args:
                    cfg = cfg.replace(f"{field} = ", f"{field} = {args.pop(field)}#")
            args["--instance"] = write_instance(tmp_path, cfg)
        argv = [command] + [a for kv in args.items() if kv[1] is not None
                            for a in kv]
        assert main(argv) == 2
        assert "not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["varpi", "eps", "delta"])
    def test_malformed_instance_number_is_2(self, tmp_path, table_file, field,
                                            capsys):
        cfg = GOOD_INSTANCE.replace(f"{field} = ", f"{field} = abc#")
        assert main(["search", "--instance", write_instance(tmp_path, cfg),
                     "--table", table_file, "--X", "150"]) == 2
        assert f"{field}: not a number: 'abc'" in capsys.readouterr().err

    def test_coefficient_beyond_float_range_is_2(self, tmp_path, table_file,
                                                 capsys):
        # 10^400 parses exactly but has no float; it raised OverflowError
        cfg = GOOD_INSTANCE.replace("lambda1 = 1", "lambda1 = 1" + "0" * 400)
        assert main(["search", "--instance", write_instance(tmp_path, cfg),
                     "--table", table_file, "--X", "150"]) == 2
        assert "beyond the float range" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["search", "approx"])
    def test_overlong_literal_is_2(self, tmp_path, table_file, command,
                                   capsys):
        # int() reads at most 4300 digits: a 5000-digit literal raised
        # ValueError inside parse_hireal
        literal = "1" + "0" * 4999
        if command == "search":
            cfg = GOOD_INSTANCE.replace("lambda1 = 1", f"lambda1 = {literal}")
            argv = ["search", "--instance", write_instance(tmp_path, cfg),
                    "--table", table_file, "--X", "150"]
        else:
            argv = ["approx", "--lambda-ratio", literal]
        assert main(argv) == 2
        assert "over 4000 characters" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["search", "approx"])
    @pytest.mark.parametrize("expr,message", [
        ("1/0", "division by zero"), ("0.0/0.0", "division by zero"),
        ("sqrt(2.5)", "sqrt expects an integer argument")])
    def test_bad_coefficient_expression_is_2(self, tmp_path, table_file,
                                             command, expr, message, capsys):
        # these exited 1 with a ZeroDivisionError or ValueError traceback
        if command == "search":
            cfg = GOOD_INSTANCE.replace("lambda2 = -sqrt(2)",
                                        f"lambda2 = {expr}")
            argv = ["search", "--instance", write_instance(tmp_path, cfg),
                    "--table", table_file, "--X", "150"]
        else:
            argv = ["approx", "--lambda-ratio", expr]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["search", "approx"])
    @pytest.mark.parametrize("expr", [
        pytest.param("(" * 400 + "1" + ")" * 400, id="400-parentheses"),
        pytest.param("-" * 1500 + "1", id="1500-minuses")])
    def test_deep_nesting_is_2(self, tmp_path, table_file, command, expr,
                               capsys):
        # the recursive parser ended in a RecursionError traceback (exit 1)
        if command == "search":
            cfg = GOOD_INSTANCE.replace("lambda1 = 1", f"lambda1 = {expr}")
            argv = ["search", "--instance", write_instance(tmp_path, cfg),
                    "--table", table_file, "--X", "150"]
        else:
            argv = ["approx", f"--lambda-ratio={expr}"]
        assert main(argv) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_surd_used_twice_is_ambiguous(self, capsys):
        # a ball encloses sqrt(2)*sqrt(2) but does not know it is 2
        assert main(["approx", "--lambda-ratio", "sqrt(2)*sqrt(2)"]) == 2
        assert "partial quotient 0 is ambiguous" in capsys.readouterr().err

    def test_bad_grid_is_2(self, table_file):
        assert main(["expsum", "--table", table_file, "--X", "100", "--k", "1",
                     "--alpha-grid", "0:1", "--which", "S"]) == 2


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; importing it would cost every CLI
    # call about 0.3 s
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, primearcs.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
