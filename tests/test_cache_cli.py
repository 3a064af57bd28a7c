from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sccore import cache
from sccore.cli import build_parser, main
from sccore.errors import CacheCorrupt
from sccore.series import p_coeffs, sc_t_coeffs


def _exit_code(argv: list[str]) -> int:
    """main's return code, or the code of the SystemExit that argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _assert_one_line_usage_error(argv: list[str], capsys) -> str:
    assert _exit_code(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


def _cache_blob(head: bytes, payload: bytes) -> bytes:
    """A cache file with this header line and payload and a valid checksum."""
    body = head + b"\n" + payload
    return cache.MAGIC + body + hashlib.sha256(body).digest()


def _payload(blob: bytes) -> bytes:
    return blob[len(cache.MAGIC):-32].partition(b"\n")[2]


def _header_width(path: Path) -> int:
    return json.loads(path.read_bytes()[len(cache.MAGIC):].partition(b"\n")[0])["width"]


# checksum-valid headers that the reader must refuse, each with its reason; the
# last two are well formed, but one names another version and the other does
# not fit a payload of one-byte coefficients 0..5
MALFORMED_HEADERS = [
    (b"not json", "header is not a JSON object"),
    (b"[5]", "header is not a JSON object"),
    (b'{"family": "sc", "n": 5, "t": null, "version": 1}', "malformed header"),
    (b'{"family": "zzz", "n": 5, "t": 3, "version": 1, "width": 8}', "malformed header"),
    (b'{"family": "sc_t", "n": 5, "t": null, "version": 1, "width": 8}', "malformed header"),
    (b'{"family": "sc", "n": 5, "t": null, "version": 1, "width": 0}', "malformed header"),
    (b'{"family": "sc", "n": 5, "t": null, "version": 2, "width": 1}', "version 2 != 1"),
    (b'{"family": "sc", "n": 5, "t": null, "version": 1, "width": 2}', "payload length mismatch"),
]
MALFORMED_IDS = ["not-json", "not-an-object", "no-width", "unknown-family", "no-t", "width-0", "version-2",
                 "width-2"]


class TestCacheFile:
    def test_round_trip(self, tmp_path):
        coeffs = sc_t_coeffs(6, 100)
        cache.write_cache(tmp_path, "sc_t", 6, 100, coeffs)
        loaded, source = cache.load_or_compute(tmp_path, "sc_t", 6, 100)
        assert loaded == coeffs and source == "cache"

    def test_bigint_payload(self, tmp_path):
        coeffs = tuple(3 ** k for k in range(0, 200, 4))
        n = len(coeffs) - 1
        cache.write_cache(tmp_path, "p", None, n, coeffs)
        loaded, source = cache.load_or_compute(tmp_path, "p", None, n)
        assert loaded == coeffs

    @pytest.mark.parametrize("family, t, n, build, width", [
        ("sc_t", 6, 100, lambda: sc_t_coeffs(6, 100), 1),
        ("p", None, 500, lambda: p_coeffs(500), 9),
    ], ids=["one-byte", "multi-byte"])
    def test_width_is_the_fewest_bytes_of_the_largest_value(self, family, t, n, build, width, tmp_path):
        coeffs = build()
        assert (max(coeffs).bit_length() + 7) // 8 == width
        path = cache.write_cache(tmp_path, family, t, n, coeffs)
        assert _header_width(path) == width
        magic_and_header = path.read_bytes().partition(b"\n")[0]
        assert path.stat().st_size == len(magic_and_header) + 1 + (n + 1) * width + 32
        assert cache.load_or_compute(tmp_path, family, t, n) == (coeffs, "cache")

    def test_a_width_8_file_still_loads(self, tmp_path):
        # every coefficient in 8 bytes, as files for rows below 2**64 were written before
        coeffs = sc_t_coeffs(6, 100)
        header = {"version": 1, "family": "sc_t", "t": 6, "n": 100, "width": 8}
        path = cache.cache_path(tmp_path, "sc_t", 6, 100)
        head = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(_cache_blob(head, b"".join(c.to_bytes(8, "little") for c in coeffs)))
        assert cache.load_or_compute(tmp_path, "sc_t", 6, 100) == (coeffs, "cache")
        assert cache.verify_file(path) == (1, [])

    def test_corruption_recomputes_with_warning(self, tmp_path):
        coeffs = sc_t_coeffs(4, 50)
        path = cache.write_cache(tmp_path, "sc_t", 4, 50, coeffs)
        blob = bytearray(path.read_bytes())
        blob[25] ^= 0xFF
        path.write_bytes(bytes(blob))
        loaded, source = cache.load_or_compute(tmp_path, "sc_t", 4, 50)
        assert loaded == coeffs and source == "recomputed"
        # the rewritten file is valid again
        assert cache.load_or_compute(tmp_path, "sc_t", 4, 50)[1] == "cache"

    def test_parameter_mismatch_rejected(self, tmp_path):
        # a valid file for sc_4 at the path of sc_5 is recomputed, not served
        path = cache.write_cache(tmp_path, "sc_t", 4, 50, sc_t_coeffs(4, 50))
        path.rename(cache.cache_path(tmp_path, "sc_t", 5, 50))
        assert cache.load_or_compute(tmp_path, "sc_t", 5, 50) == (sc_t_coeffs(5, 50), "recomputed")
        assert cache.load_or_compute(tmp_path, "sc_t", 5, 50)[1] == "cache"

    def test_verify_and_purge(self, tmp_path):
        cache.write_cache(tmp_path, "sc_t", 6, 80, sc_t_coeffs(6, 80))
        assert cache.verify_file(cache.cache_path(tmp_path, "sc_t", 6, 80)) == (1, [])
        assert cache.purge(tmp_path) == 1
        assert cache.purge(tmp_path) == 0


# the two small files of the corruption sweep: sc_6 at N = 100 is one byte wide, p at N = 500 nine
SMALL_FILES = [("sc_t", 6, 100, "6 100"), ("p", None, 500, "500")]


class TestCorruptionOfAnyShape:
    """Every corruption of a cache file is CacheCorrupt from the one reader, `_decode`."""

    @pytest.mark.parametrize("family, t, n, _", SMALL_FILES, ids=["one-byte", "multi-byte"])
    def test_every_truncation_flip_and_malformed_header_is_corrupt(self, family, t, n, _, tmp_path):
        coeffs = cache.compute_family(family, t, n)
        blob = cache.write_cache(tmp_path, family, t, n, coeffs).read_bytes()
        header, decoded = cache._decode(blob)
        assert (header["family"], header["t"], header["n"], decoded) == (family, t, n, coeffs)
        cases = [("truncated", i, blob[:i]) for i in range(len(blob))]
        for i in range(len(blob)):
            flipped = bytearray(blob)
            flipped[i] ^= 0xFF
            cases.append(("flipped", i, bytes(flipped)))
        cases += [("malformed", head, _cache_blob(head, _payload(blob))) for head, _ in MALFORMED_HEADERS]
        undetected = []
        for kind, where, bad in cases:
            try:
                cache._decode(bad)
            except CacheCorrupt:
                continue
            undetected.append((kind, where))
        assert undetected == []

    @pytest.mark.parametrize("kind", ["truncated", "flipped"])
    @pytest.mark.parametrize("family, t, n, row", SMALL_FILES, ids=["one-byte", "multi-byte"])
    def test_count_warns_once_and_verify_prints_one_line(self, family, t, n, row, kind, tmp_path, capsys):
        # the malformed headers go through the CLI in TestCountCommand.test_checksum_valid_malformed_header
        count = ["count", family, *(["--t", str(t)] if t else []), "--n", str(n), "--cache-dir", str(tmp_path)]
        assert main(count) == 0
        cold = capsys.readouterr().out
        assert cold.startswith(f"{row} ")
        path = cache.cache_path(tmp_path, family, t, n)
        blob = bytearray(path.read_bytes())
        if kind == "truncated":
            del blob[len(blob) // 2:]
        else:
            blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert main(count) == 0
        assert capsys.readouterr() == (cold, f"warning: corrupt cache file for {family} t={t} n={n} recomputed\n")
        path.write_bytes(bytes(blob))
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.count("\n") == 1
        assert out.startswith(f"{path}: corrupt (") and out.endswith("); will recompute on next use\n")


class TestCountCommand:
    def test_single_value(self, capsys):
        assert main(["count", "sc_t", "--t", "6", "--n", "13"]) == 0
        assert capsys.readouterr().out == "6 13 0\n"

    def test_range_matches_prefix(self, capsys):
        assert main(["count", "sc", "--n", "0..27", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,n,value"
        values = [int(line.split(",")[2]) for line in lines[1:]]
        assert values == [1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3,
                          3, 4, 5, 5, 5, 6, 7, 8, 8, 9, 11, 12, 12, 14]

    def test_method_all_agrees(self, capsys):
        assert main(["count", "sc_t", "--t", "4", "--n", "10", "--method", "all"]) == 0
        assert capsys.readouterr().out == "4 10 2\n"

    @pytest.mark.parametrize("family, t", [("sc", None), ("c", 3), ("p", None), ("phat", 2), ("nsc_t", 3)])
    def test_method_all_runs_the_methods_the_family_has(self, family, t, capsys):
        argv = ["count", family, *(["--t", str(t)] if t else []), "--n", "5"]
        assert main(argv) == 0
        value = capsys.readouterr().out
        assert main([*argv, "--method", "all"]) == 0
        out, err = capsys.readouterr()
        methods = "series" if family in ("phat", "nsc_t") else "series, oracle"
        assert (out, err) == (value, f"# methods agree: {methods}\n")

    @pytest.mark.parametrize("argv, methods", [
        ("count sc --n 12 --method all --oracle-cap 10", "series"),
        ("count sc_t --t 4 --n 104 --method all", "series, recursive, oracle"),
        ("count sc_t --t 2 --n 60 --method all", "series, recursive, oracle"),
    ])
    def test_agree_line_names_the_methods_that_ran(self, argv, methods, capsys):
        # past the oracle cap, the closed form's budget or the large-t range a method gives no value
        argv = argv.split()
        assert main(argv[:argv.index("--method")]) == 0
        value = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr() == (value, f"# methods agree: {methods}\n")

    @pytest.mark.parametrize("argv", [
        ["count", "phat", "--t", "2", "--n", "5", "--method", "oracle"],
        ["count", "nsc_t", "--t", "3", "--n", "5", "--method", "oracle"],
        ["count", "sc", "--n", "5", "--method", "recursive"],
    ])
    def test_a_method_the_family_lacks_is_one_line(self, argv, capsys):
        err = _assert_one_line_usage_error(argv, capsys)
        assert f"has no method {argv[-1]}" in err

    def test_method_disagreement_exits_2(self, capsys, monkeypatch):
        from sccore import formulas

        real = formulas.method_value

        def broken(method, *args):
            v = real(method, *args)
            return v + 1 if method == "oracle" else v

        monkeypatch.setattr(formulas, "method_value", broken)
        assert main(["count", "sc_t", "--t", "4", "--n", "10", "--method", "all"]) == 2

    def test_missing_t_is_usage_error(self):
        assert main(["count", "sc_t", "--n", "10"]) == 1

    def test_bad_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "sc_t", "--t", "oops", "--n", "1"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("bad", ["5..3", "-3", "x"])
    def test_bad_range_is_one_line_usage_error(self, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "sc", "--n", bad])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "error: argument --n" in err

    def test_corrupt_cache_same_output_one_warning(self, tmp_path, capsys):
        args = ["count", "sc_t", "--t", "6", "--n", "0..40", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        path = tmp_path / "sc_t_t6_n40.bin"
        blob = bytearray(path.read_bytes())
        blob[25] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert main(args) == 0
        out, err = capsys.readouterr()
        assert out == cold
        assert err.count("\n") == 1 and err.startswith("warning:")

    @pytest.mark.parametrize("head, reason", MALFORMED_HEADERS, ids=MALFORMED_IDS)
    def test_checksum_valid_malformed_header(self, head, reason, tmp_path, capsys):
        # the checksum covers the header, so only the header check catches these
        args = ["count", "sc", "--n", "0..5", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        path = tmp_path / "sc_n5.bin"
        blob = _cache_blob(head, _payload(path.read_bytes()))
        path.write_bytes(blob)
        assert main(args) == 0
        out, err = capsys.readouterr()
        assert out == cold
        assert err == "warning: corrupt cache file for sc t=None n=5 recomputed\n"
        path.write_bytes(blob)
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert (out, err) == (f"{path}: corrupt ({reason}); will recompute on next use\n", "")

    def test_cache_dir_used_and_values_unchanged(self, tmp_path, capsys):
        args = ["count", "sc_t", "--t", "6", "--n", "73", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert (tmp_path / "sc_t_t6_n73.bin").exists()
        assert main(args) == 0
        assert capsys.readouterr().out == cold == "6 73 0\n"


class TestTableCommand:
    def test_csv_matches_series(self, capsys):
        assert main(["table", "sc", "--nmax", "12", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,n,value"
        for line in lines[1:]:
            t, n, v = line.split(",")
            assert sc_t_coeffs(int(t), 12)[int(n)] == int(v)

    def test_single_cell(self, capsys):
        assert main(["table", "sc", "--nmax", "0"]) == 0
        body = capsys.readouterr().out.strip().splitlines()
        assert body == ["t,n,value", "2,0,1"]

    def test_byte_determinism(self, capsys):
        main(["table", "sc", "--nmax", "20", "--format", "tsv"])
        first = capsys.readouterr().out
        main(["table", "sc", "--nmax", "20", "--format", "tsv"])
        assert capsys.readouterr().out == first

    def test_diff_tables_regenerated_from_counts(self, capsys):
        assert main(["table", "sc-diff-odd", "--nmax", "20", "--tmax", "9", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        for line in lines:
            label, n, v = line.split(",")
            a, b = (int(x) for x in label.split("-"))
            assert sc_t_coeffs(a, 20)[int(n)] - sc_t_coeffs(b, 20)[int(n)] == int(v)

    def test_unwritable_path_exits_1(self):
        assert main(["table", "sc", "--nmax", "4", "--out", "/nonexistent/dir/x.csv"]) == 1


class TestScanCommand:
    def test_holds_exit_0(self, capsys, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["scan", "positivity", "--t", "6", "--nmax", "200", "--json", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["verdict"] == "holds"
        assert rep["data"]["zero_set"] == [2, 12, 13, 73]

    def test_violations_exit_3(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["scan", "monotonicity", "--family", "sc-odd", "--nmax", "100",
                     "--window", "theorem", "--json", str(out)])
        assert code == 3
        rep = json.loads(out.read_text())
        assert rep["verdict"] == "fails"
        # includes the published (21, 47) equality among the small-n anomalies
        assert [21, 47] in rep["data"]["small_n_equalities"]

    def test_bad_scan_name_exit_1(self):
        assert main(["scan", "nonsense", "--nmax", "10"]) == 1

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "rep.json"
        main(["scan", "characterization", "--t", "7", "--nmax", "300", "--json", str(out)])
        rep = json.loads(out.read_text())
        assert set(rep) == {"scan", "params", "verdict", "witnesses", "data", "elapsed_ms"}
        assert json.loads(json.dumps(rep)) == rep

    def test_determinism_modulo_elapsed(self, tmp_path):
        paths = []
        for k in (0, 1):
            p = tmp_path / f"rep{k}.json"
            main(["scan", "identity", "--preset", "--nmax", "150", "--json", str(p)])
            paths.append(p.read_text())
        strip = lambda s: re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": X', s)
        assert strip(paths[0]) == strip(paths[1])

    def test_simultaneous(self, tmp_path, capsys):
        code = main(["scan", "simultaneous", "--s", "3", "--t", "4"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["data"]["count"] == 5

    def test_growth_range(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["scan", "growth", "--range", "19..30", "--json", str(out), "--workers", "1"])
        assert code == 0  # no fiber-bound failures this early
        rep = json.loads(out.read_text())
        assert rep["data"]["g_undefined_at"] == [27]

    def test_distribution(self, capsys):
        code = main(["scan", "distribution", "--range", "3..30"])
        assert code == 0

    def test_distribution_single_n_emits_rows(self, capsys):
        assert main(["scan", "distribution", "--nmax", "20"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["data"]["pi"]["4"] == [8, 627]  # (c_5(20) - c_4(20))/p(20)

    def test_distribution_over_an_undefined_n(self, capsys):
        assert main(["scan", "distribution", "--range", "2..5"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "scan error: sc(2) = 0; sigma families undefined\n")

    def test_distribution_at_n_0(self, capsys):
        assert main(["scan", "distribution", "--nmax", "0"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "scan error: at n = 0 every telescoping sum is 0; the distribution is undefined\n")

    def test_unimodality(self, capsys):
        code = main(["scan", "unimodality", "--family", "pi", "--nlo", "63",
                     "--nmax", "100", "--ncap", "100"])
        assert code == 0

    def test_cross_validate(self, capsys):
        code = main(["scan", "cross-validate", "--tmax", "8", "--nmax", "30"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdict"] == "holds"

    def test_cross_validate_default_tmax(self, capsys):
        assert main(["scan", "cross-validate", "--nmax", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["params"]["t_max"] == 12

    def test_explicit_identity(self, capsys):
        code = main(["scan", "identity", "--t", "5", "--a", "2", "--b", "1",
                     "--a2", "1", "--b2", "0", "--nmax", "200"])
        assert code == 0

    def test_explicit_inequality(self, capsys):
        code = main(["scan", "inequality", "--family", "c", "--t", "7", "--a", "2",
                     "--b", "2", "--alpha", "2", "--nlo", "0", "--non-strict",
                     "--nmax", "300"])
        assert code == 0

    def test_inequality_preset_reports_violations(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["scan", "inequality", "--preset", "conjectured",
                     "--nmax", "100", "--json", str(out)])
        assert code == 3  # the stated 1.9/2.6 lower bounds fail at n = 1 and 20

    def test_count_oracle_methods(self, capsys):
        assert main(["count", "c_t", "--t", "4", "--n", "12", "--method", "oracle"]) == 0
        assert capsys.readouterr().out == "4 12 7\n"
        assert main(["count", "p", "--n", "10", "--method", "oracle"]) == 0
        assert capsys.readouterr().out == "10 42\n"

    def test_oracle_cap_flag(self):
        assert main(["count", "sc", "--n", "50", "--method", "oracle",
                     "--oracle-cap", "10"]) == 1

    @pytest.mark.parametrize("family", ["sc", "p", "c_t", "sc_t"])
    def test_oracle_cap_is_one_check_for_every_family(self, family, capsys):
        t = ["--t", "5"] if family in ("c_t", "sc_t") else []
        assert main(["count", family, *t, "--n", "260", "--method", "oracle"]) == 1
        assert capsys.readouterr() == ("", "error: n=260 exceeds oracle cap 200\n")
        # --method all skips the oracle past the cap and prints the series
        assert main(["count", family, *t, "--n", "12", "--method", "series"]) == 0
        series = capsys.readouterr().out
        assert main(["count", family, *t, "--n", "12", "--method", "all", "--oracle-cap", "10"]) == 0
        assert capsys.readouterr().out == series

    def test_count_json_format(self, capsys):
        assert main(["count", "sc_t", "--t", "6", "--n", "12..13",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == [[6, 12, 0], [6, 13, 0]]


class TestBadInputs:
    @pytest.mark.parametrize("argv", [
        ["count", "phat", "--t", "0", "--n", "5"],
        ["count", "c_t", "--t", "0", "--n", "5"],
        ["count", "nsc_t", "--t", "1", "--n", "3"],
        ["scan", "positivity", "--t", "6", "--nmax", "-5"],
        ["table", "sc", "--nmax", "-5"],
    ])
    def test_series_boundary(self, argv, capsys):
        _assert_one_line_usage_error(argv, capsys)

    @pytest.mark.parametrize("argv", [
        ["scan", "positivity"],
        ["scan", "identity", "--t", "5"],
        ["scan", "inequality", "--t", "9", "--a", "4", "--b", "0", "--alpha", "x"],
        ["scan", "unimodality", "--family", "bogus"],
        ["scan", "monotonicity", "--family", "bogus"],
        ["scan", "simultaneous", "--s", "1", "--t", "2"],
        ["scan", "monotonicity", "--pair", "0", "--family", "c", "--nmax", "10"],
        # each would read an index below 0 or past the end of its row
        ["scan", "identity", "--t", "5", "--a", "2", "--b", "-3", "--a2", "1", "--b2", "0", "--nmax", "10"],
        ["scan", "inequality", "--t", "9", "--a", "1", "--b", "-5", "--alpha", "1", "--nmax", "20"],
        ["scan", "unimodality", "--family", "pi", "--nmax", "100", "--ncap", "50"],
        # the growth audit starts at n = 19, so this range is empty
        ["scan", "growth", "--nmax", "10"],
    ])
    def test_scan_arguments(self, argv, capsys):
        _assert_one_line_usage_error(argv, capsys)

    @pytest.mark.parametrize("method", ["recursive", "closed"])
    @pytest.mark.parametrize("t", [-2, 0, 1])
    def test_formula_methods_below_core_size_2(self, t, method, capsys):
        argv = ["count", "sc_t", "--t", str(t), "--n", "0..8", "--method", method]
        err = _assert_one_line_usage_error(argv, capsys)
        assert err == f"error: sc_t formulas defined for t >= 2, got {t}\n"

    @pytest.mark.parametrize("family", ["sc_t", "c_t"])
    def test_oracle_at_t_0(self, family, capsys):
        _assert_one_line_usage_error(["count", family, "--t", "0", "--n", "5", "--method", "oracle"], capsys)

    def test_oracle_at_t_1_counts(self, capsys):
        assert main(["count", "sc_t", "--t", "1", "--n", "5", "--method", "oracle"]) == 0
        assert capsys.readouterr().out == "1 5 0\n"

    @pytest.mark.parametrize("tmax", ["0", "1", "-3"])
    def test_cross_validate_tmax_below_2(self, tmax, capsys):
        _assert_one_line_usage_error(["scan", "cross-validate", "--tmax", tmax, "--nmax", "5"], capsys)

    @pytest.mark.parametrize("t, n, message", [
        ("4", "104", "floor(n/4t)=13 exceeds budget 12"),
        ("5", "65", "floor(n/(2t+1))=13 exceeds budget 12"),
    ])
    def test_closed_form_over_budget(self, t, n, message, capsys):
        argv = ["count", "sc_t", "--t", t, "--n", n, "--method", "closed"]
        assert _assert_one_line_usage_error(argv, capsys) == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["count", "sc", "--n", "5", "--out"],
        ["scan", "positivity", "--t", "6", "--nmax", "20", "--json"],
        ["table", "sc", "--nmax", "4", "--out"],
    ])
    def test_unwritable_output_path(self, argv, tmp_path, capsys):
        path = str(tmp_path / "missing" / "out.txt")
        assert _exit_code([*argv, path]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith(f"cannot write {path}: ")

    @pytest.mark.parametrize("argv", [
        ["scan", "inequality", "--preset", "bogus", "--nmax", "20"],
        ["scan", "identity", "--preset", "bogus", "--nmax", "20"],
        ["scan", "identity", "--preset", "all", "--nmax", "20"],
    ])
    def test_unknown_preset(self, argv, capsys):
        err = _assert_one_line_usage_error(argv, capsys)
        assert err.startswith(f"unknown preset {argv[3]!r} for scan {argv[1]}")


    @pytest.mark.parametrize("family", ["sc_t", "c", "c_t", "phat", "nsc_t"])
    def test_cache_build_without_t(self, family, tmp_path, capsys):
        argv = ["cache", "build", "--family", family, "--nmax", "10", "--cache-dir", str(tmp_path)]
        assert _assert_one_line_usage_error(argv, capsys) == "this family requires --t\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["count", "sc", "--t", "3", "--n", "5"],
        ["count", "p", "--t", "3", "--n", "5"],
        ["cache", "build", "--family", "sc", "--t", "3", "--nmax", "10"],
        ["cache", "build", "--family", "p", "--t", "2..4", "--nmax", "10"],
    ])
    def test_t_refused_where_unused(self, argv, tmp_path, capsys):
        err = _assert_one_line_usage_error([*argv, "--cache-dir", str(tmp_path)], capsys)
        family = argv[1] if argv[0] == "count" else argv[3]
        assert err == f"family {family} takes no --t\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, option", [
        (["scan", "positivity", "--t", "6", "--nmax", "20", "--preset", "bogus", "--family", "nope"], "--preset"),
        (["scan", "positivity", "--t", "6", "--nmax", "20", "--family", "nope"], "--family"),
        (["scan", "growth", "--range", "19..20", "--preset"], "--preset"),
        (["scan", "identity", "--preset", "--family", "sc", "--nmax", "20"], "--family"),
    ])
    def test_scan_option_it_does_not_read(self, argv, option, capsys):
        assert _assert_one_line_usage_error(argv, capsys) == f"scan {argv[1]} takes no {option}\n"

    @pytest.mark.parametrize("argv, option", [
        (["scan", "growth", "--range", "19..20", "--t", "5", "--pair", "3", "--s", "2"], "--t"),
        (["scan", "monotonicity", "--pair", "3", "--window", "theorem", "--nmax", "50"], "--window"),
        (["scan", "positivity", "--t", "6", "--nmax", "20", "--alpha", "3/2", "--range", "1..3"], "--range"),
        (["scan", "unimodality", "--family", "pi", "--nmax", "30", "--tmax", "4"], "--tmax"),
        (["scan", "simultaneous", "--s", "3", "--t", "4", "--nmax", "10"], "--nmax"),
        (["scan", "positivity", "--t", "6", "--nmax", "20", "--workers", "2"], "--workers"),
        (["scan", "identity", "--preset", "--nmax", "20", "--non-strict"], "--non-strict"),
        # a mode reads only its own options: spec options under --preset, --nmax under --range
        (["scan", "identity", "--preset", "--t", "5", "--a", "2", "--nmax", "20"], "--t"),
        (["scan", "inequality", "--preset", "--t", "5", "--nmax", "20"], "--t"),
        (["scan", "inequality", "--preset", "conjectured", "--family", "c", "--nmax", "20"], "--family"),
        (["scan", "growth", "--range", "19..20", "--nmax", "50"], "--nmax"),
        (["scan", "distribution", "--range", "3..5", "--nmax", "50"], "--nmax"),
    ])
    def test_scan_refuses_every_option_it_does_not_read(self, argv, option, capsys):
        assert _assert_one_line_usage_error(argv, capsys) == f"scan {argv[1]} takes no {option}\n"

    def test_option_at_its_default_counts_as_not_given(self, capsys):
        assert main(["scan", "monotonicity", "--pair", "3", "--window", "conjecture", "--nmax", "20"]) == 0

    def test_growth_still_accepts_workers(self, capsys):
        assert main(["scan", "growth", "--range", "19..20", "--workers", "2"]) == 0
        assert main(["scan", "growth", "--nmax", "20", "--workers", "2"]) == 0

    def test_each_mode_runs_with_its_own_options(self, capsys):
        assert main(["scan", "distribution", "--range", "3..5"]) == 0
        assert main(["scan", "distribution", "--nmax", "5"]) == 0
        assert main(["scan", "identity", "--preset", "--nmax", "20"]) == 0
        assert main(["scan", "inequality", "--preset", "proved", "--nmax", "20"]) == 0

    @pytest.mark.parametrize("family", [None, "sc", "c", "nsc"])
    @pytest.mark.parametrize("pair", ["0", "-2"])
    def test_pair_below_1(self, family, pair, capsys):
        argv = ["scan", "monotonicity", "--pair", pair, "--nmax", "10", *(["--family", family] if family else [])]
        err = _assert_one_line_usage_error(argv, capsys)
        assert err == f"scan monotonicity needs --pair >= 1, got {pair}\n"


class TestCacheCommand:
    def test_build_verify_purge_cycle(self, tmp_path, capsys):
        base = ["--cache-dir", str(tmp_path)]
        assert main(["cache", "build", "--family", "sc_t", "--t", "4..6", "--nmax", "60", *base]) == 0
        capsys.readouterr()
        assert main(["cache", "verify", *base]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") == 3
        assert main(["cache", "purge", *base]) == 0
        assert capsys.readouterr().out.startswith("removed 3")

    def test_verify_reports_headerless_file_as_corrupt(self, tmp_path, capsys):
        (tmp_path / "sc_t_t6_n80.bin").write_bytes(cache.MAGIC + b"no header line")
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "corrupt (checksum mismatch); will recompute on next use" in out

    def test_env_var_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SCCORE_CACHE_DIR", str(tmp_path))
        assert main(["count", "sc_t", "--t", "5", "--n", "40"]) == 0
        assert (tmp_path / "sc_t_t5_n40.bin").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        env_dir.mkdir()
        flag_dir.mkdir()
        monkeypatch.setenv("SCCORE_CACHE_DIR", str(env_dir))
        main(["count", "sc_t", "--t", "5", "--n", "41", "--cache-dir", str(flag_dir)])
        assert list(env_dir.iterdir()) == []
        assert (flag_dir / "sc_t_t5_n41.bin").exists()


class TestUnusableCacheDir:
    """A cache directory that cannot be used ends in one line, never a traceback:
    a directory where a cache file belongs, or --cache-dir naming a regular file."""

    # each kind: (the cache directory it makes, the OSError a write meets there)
    @staticmethod
    def _unusable(kind: str, tmp_path: Path) -> tuple[Path, str]:
        if kind == "directory-at-file-path":
            (tmp_path / "sc_n5.bin").mkdir()
            return tmp_path, "Is a directory"
        (tmp_path / "plain").write_text("not a directory")
        return tmp_path / "plain", "File exists"

    @pytest.mark.parametrize("kind", ["directory-at-file-path", "file-as-cache-dir"])
    def test_count_prints_its_values_with_one_warning(self, kind, tmp_path, capsys):
        cache_dir, reason = self._unusable(kind, tmp_path)
        assert main(["count", "sc", "--n", "0..5"]) == 0
        cold = capsys.readouterr().out
        assert main(["count", "sc", "--n", "0..5", "--cache-dir", str(cache_dir)]) == 0
        out, err = capsys.readouterr()
        assert out == cold
        assert err == f"warning: cache directory {cache_dir} cannot be used ({reason}); computed without it\n"

    def test_verify_reports_a_directory_at_the_file_path_as_corrupt(self, tmp_path, capsys):
        self._unusable("directory-at-file-path", tmp_path)
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        path = tmp_path / "sc_n5.bin"
        assert (out, err) == (f"{path}: corrupt (cannot read: Is a directory); will recompute on next use\n", "")

    @pytest.mark.parametrize("action", ["verify", "purge"])
    def test_verify_and_purge_refuse_a_regular_file(self, action, tmp_path, capsys):
        cache_dir, _ = self._unusable("file-as-cache-dir", tmp_path)
        assert main(["cache", action, "--cache-dir", str(cache_dir)]) == 1
        assert capsys.readouterr() == ("", f"cannot {action} {cache_dir}: not a directory\n")
        assert cache_dir.read_text() == "not a directory"

    @pytest.mark.parametrize("kind", ["directory-at-file-path", "file-as-cache-dir"])
    def test_build_is_one_line_and_exit_1(self, kind, tmp_path, capsys):
        cache_dir, reason = self._unusable(kind, tmp_path)
        assert main(["cache", "build", "--family", "sc", "--nmax", "5", "--cache-dir", str(cache_dir)]) == 1
        assert capsys.readouterr() == ("", f"cannot write cache to {cache_dir}: {reason}\n")
        assert len(list(tmp_path.iterdir())) == 1  # no temporary file is left behind


class TestOptionSets:
    """Each command takes exactly the options it reads."""

    OPTIONS = {
        "count": {"family", "--t", "--n", "--method", "--format", "--out", "--oracle-cap", "--cache-dir"},
        "table": {"kind", "--nmax", "--tmax", "--format", "--out"},
        "scan": {"name", "--t", "--s", "--family", "--pair", "--window", "--nmax", "--nlo", "--ncap",
                 "--tmax", "--range", "--a", "--b", "--a2", "--b2", "--alpha", "--non-strict", "--preset",
                 "--json", "--workers"},
        "cache": {"action", "--family", "--t", "--nmax", "--cache-dir"},
    }

    def test_each_command_has_its_option_set(self):
        [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        got = {name: {a.option_strings[0] if a.option_strings else a.dest
                      for a in sub._actions if not isinstance(a, argparse._HelpAction)}
               for name, sub in commands.choices.items()}
        assert got == self.OPTIONS
        assert sum(len(options) for options in got.values()) == 38

    def test_count_methods_are_the_formulas_method_table(self):
        from sccore import cli, formulas

        [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        [method] = [a for a in commands.choices["count"]._actions if a.dest == "method"]
        declared = {m for methods in formulas.METHODS.values() for m in methods}
        assert set(method.choices) == {"series", "all"} | declared
        assert {{"c": "c_t"}.get(f, f) for f in cli._COUNT_FAMILIES} == set(formulas.METHODS)

    @pytest.mark.parametrize("argv", [
        ["table", "sc", "--nmax", "4", "--cache-dir", "D"],
        ["table", "sc", "--nmax", "4", "--oracle-cap", "5"],
        ["scan", "positivity", "--t", "6", "--nmax", "20", "--cache-dir", "D"],
        ["scan", "positivity", "--t", "6", "--nmax", "20", "--oracle-cap", "5"],
        ["scan", "cross-validate", "--nmax", "20", "--oracle-cap", "5"],
        ["cache", "purge", "--oracle-cap", "5"],
        ["cache", "verify", "--oracle-cap", "5"],
    ])
    def test_a_removed_option_is_one_line(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SCCORE_CACHE_DIR", str(tmp_path))
        cache.write_cache(tmp_path, "sc_t", 6, 10, sc_t_coeffs(6, 10))
        err = _assert_one_line_usage_error(argv, capsys)
        assert err == f"sccore: error: unrecognized arguments: {' '.join(argv[-2:])}\n"
        assert capsys.readouterr().out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["sc_t_t6_n10.bin"]


class TestImportOnDemand:
    """A command loads only the layers its handler runs (checked in a fresh interpreter)."""

    UNUSED = ("dataclasses", "fractions", "sccore.analytics", "sccore.growth", "sccore.formulas",
              "sccore.abacus", "sccore.partitions")
    SCRIPT = """
import contextlib, io, sys
from sccore.cli import main
for argv in (["count", "sc", "--n", "7"], ["table", "sc", "--nmax", "60", "--tmax", "62", "--format", "csv"],
             ["cache", "purge"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(set(sys.argv[1:]) & set(sys.modules)))
import sccore
assert sccore.growth.verify_growth.__module__ == "sccore.growth"
from sccore import sc_t_coeffs
assert sc_t_coeffs(6, 13)[13] == 0
"""

    def test_count_table_and_purge_load_no_unused_layer(self, tmp_path):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, SCCORE_CACHE_DIR=str(tmp_path),
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, *self.UNUSED], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
