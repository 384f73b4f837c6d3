import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest

import oracles
from ringlab import (CapacityError, CatalogEntry, ConstructionAbort, SpecParseError, catalog,
                     default_catalog, format_element, load_catalog, make_matrix_ring,
                     make_zmod, parse_element, parse_ring_spec, ring_profile, rings,
                     solve_unimodular, verify_entry_tags)
from ringlab.cache import ResultCache, default_cache_path
from ringlab.cli import (PROPERTY_GETTERS, _hunt_candidates, main, parse_property_expr, run_hunt,
                         run_verify)
from ringlab.reports import strip_timing


# -- ring-spec parsing ------------------------------------------------------------

def test_parse_basic_specs():
    assert parse_ring_spec("Zn:6").size == 6
    assert parse_ring_spec("T2:Zn:3").size == 27
    assert parse_ring_spec("prod:Zn:2+Zn:3").size == 6
    assert parse_ring_spec("M2:Zn:2").size == 16
    assert parse_ring_spec("op:T2:Zn:3").size == 27


def test_parse_caches_by_spec():
    assert parse_ring_spec("Zn:6") is parse_ring_spec("Zn:6")


def test_parse_errors_carry_position():
    with pytest.raises(SpecParseError) as exc:
        parse_ring_spec("Zn:x")
    assert exc.value.pos == 3
    with pytest.raises(SpecParseError):
        parse_ring_spec("Q:5")
    with pytest.raises(SpecParseError) as exc:
        parse_ring_spec("Zn:6x")
    assert exc.value.pos == 4
    with pytest.raises(SpecParseError):
        parse_ring_spec("M2Zn:2")


def test_parse_capacity_error():
    with pytest.raises(CapacityError):
        parse_ring_spec("M2:Zn:9")  # 9**4 = 6561 > 4096


@pytest.mark.parametrize("error", [SpecParseError("expected a number", "Zn:x", 3),
                                   CapacityError(5000, 4096),
                                   ConstructionAbort(7, "no isomorphism fL -> gL")])
def test_errors_survive_a_pickle_round_trip(error):
    # a verify --jobs worker hands its errors back pickled
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)


def test_matrix_shape_size_is_checked_before_its_cells_are_listed(monkeypatch, capsys):
    def no_positions(*_):
        raise AssertionError("positions() ran before the size check")

    monkeypatch.setattr(rings, "positions", no_positions)
    with pytest.raises((CapacityError, ValueError)):
        make_matrix_ring(10 ** 20, make_zmod(2))
    assert main(["classify", "--ring", "M99999999999999999999:Zn:2", "--no-cache"]) == 2
    assert "ringlab: error:" in capsys.readouterr().err


def test_product_spec_builds_no_factor_past_the_cap(monkeypatch):
    built = []

    def sized_stand_in(n):
        # only the size is read before the cap check, so no table is made
        built.append(n)
        return types.SimpleNamespace(size=n, spec=f"Zn:{n}")

    monkeypatch.setattr(catalog, "make_zmod", sized_stand_in)
    with pytest.raises(CapacityError):
        parse_ring_spec("prod:Zn:4096+Zn:4096+Zn:4096")
    assert built == [4096, 4096]


@pytest.mark.parametrize("ring, element", [("M2:Zn:2", "[1,2]"), ("prod:Zn:2+Zn:3", "5"),
                                           ("Zn:6", "True")])
def test_malformed_literals_are_usage_errors(ring, element, capsys):
    assert main(["decompose", "--ring", ring, "--element", element, "--no-cache"]) == 2
    assert "ringlab: error:" in capsys.readouterr().err


def test_element_literals_match_spec_grammar():
    t2 = parse_ring_spec("T2:Zn:3")
    e = parse_element(t2, "[[1,1],[0,0]]")
    assert format_element(t2, e) == "[[1,1],[0,0]]"
    prod = parse_ring_spec("prod:Zn:2+Zn:3")
    x = parse_element(prod, "(1,2)")
    assert format_element(prod, x) == "(1,2)"


# -- the default catalog -----------------------------------------------------------

def test_default_catalog_minimum_entries():
    specs = [e.spec for e in default_catalog()]
    for required in ("Zn:1", "Zn:2", "Zn:3", "Zn:4", "Zn:6", "Zn:8", "Zn:9", "Zn:12",
                     "M2:Zn:2", "M2:Zn:3", "T2:Zn:3", "prod:Zn:2+Zn:3", "op:T2:Zn:3"):
        assert required in specs


def test_default_catalog_tags():
    by_spec = {e.spec: e for e in default_catalog()}
    assert "not-ssp" in by_spec["T2:Zn:3"].tags
    assert {"ssp", "ic"} <= set(by_spec["M2:Zn:2"].tags)
    assert all(t in e.provenance for e in default_catalog() for t in e.tags)


def test_all_default_tags_verify(catalog_rings):
    for entry in default_catalog():
        profile = ring_profile(catalog_rings[entry.spec])
        assert verify_entry_tags(entry, profile) == []


def test_tag_mismatch_detected(t2z3):
    bogus = CatalogEntry(spec="T2:Zn:3", tags=("ssp",), provenance={"ssp": "computed"})
    mismatches = verify_entry_tags(bogus, ring_profile(t2z3))
    assert mismatches == [{"tag": "ssp", "expected": True, "actual": False}]


def test_load_catalog_roundtrip(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([e.to_json() for e in default_catalog()]))
    loaded = load_catalog(path)
    assert [e.spec for e in loaded] == [e.spec for e in default_catalog()]


# -- property expressions ------------------------------------------------------------

def test_property_expression_parser():
    assert parse_property_expr("ic&!ssp") == ("and", ("var", "ic"),
                                              ("not", ("var", "ssp")))
    assert parse_property_expr("(ssp|ic)&!abelian") == \
        ("and", ("or", ("var", "ssp"), ("var", "ic")), ("not", ("var", "abelian")))


def test_property_expression_rejects_junk():
    with pytest.raises(ValueError):
        parse_property_expr("ic&&ssp")
    with pytest.raises(ValueError):
        parse_property_expr("frobnitz")
    with pytest.raises(ValueError):
        parse_property_expr("ic |")


def _tree_or_refusal(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


def _random_expression(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(sorted(PROPERTY_GETTERS))
    if roll < 0.45:
        return "!" + _random_expression(rng, depth - 1)
    if roll < 0.6:
        return "(" + _random_expression(rng, depth - 1) + ")"
    space = rng.choice(["", " ", "\t", "\n"])
    return (_random_expression(rng, depth - 1) + space + rng.choice("&|") + space
            + _random_expression(rng, depth - 1))


def test_property_parser_matches_recursive_descent():
    tokens = ["ic", "ssp", "zorp", "1ic", "&", "|", "!", "(", ")", "~", " ", "\n"]
    texts = ["".join(t) for k in range(5) for t in itertools.product(tokens, repeat=k)]
    rng = random.Random(0)
    junk = "ic&|!() \t\n~.,=1_x"
    for _ in range(3000):
        text = _random_expression(rng, 6)
        if rng.random() < 0.5:  # one character deleted or replaced
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice(["", rng.choice(junk)]) + text[at + 1:]
        texts.append(text)
    for text in texts:
        assert _tree_or_refusal(parse_property_expr, text) == \
            _tree_or_refusal(oracles.property_expr_descent, text), repr(text)


def test_property_expressions_nest_at_most_200_levels():
    assert parse_property_expr("!" * 199 + "ic")[0] == "not"
    assert parse_property_expr("ic&" * 199 + "ic")[0] == "and"
    for text in ("!" * 200 + "ic", "ic|" * 200 + "ic", "!(" * 200 + "ic" + ")" * 200):
        with pytest.raises(ValueError, match="nested deeper than 200 levels"):
            parse_property_expr(text)


def test_hunt_finds_triangular_ring():
    report = run_hunt("ic&!ssp", 27)
    specs = [m["spec"] for m in report["matches"]]
    assert "T2:Zn:3" in specs
    assert all(parse_ring_spec(s).size <= 27 for s in specs)


@pytest.mark.parametrize("max_size", [0, 1, 5, 6, 16, 64, 81, 256, 257, 1000])
def test_hunt_candidates_match_the_full_product_loop(max_size):
    default_specs = [entry.spec for entry in default_catalog()]
    assert _hunt_candidates(max_size) == oracles.hunt_candidates_loop(default_specs, max_size)


def test_hunt_respects_size_bound():
    report = run_hunt("abelian", 6)
    assert all(m["size"] <= 6 for m in report["matches"])
    assert "M2:Zn:3" not in [m["spec"] for m in report["matches"]]


# -- run_verify ------------------------------------------------------------------------

def test_run_verify_single_suite_passes():
    section, ok = run_verify("T2.4")
    assert ok
    assert len(section["suites"]) == len(default_catalog())
    assert section["status"] == "pass"


def test_run_verify_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_verify("T3.14")


def test_run_verify_flags_bad_tags(tmp_path):
    entries = [CatalogEntry(spec="T2:Zn:3", tags=("ssp",), provenance={})]
    section, ok = run_verify("L2.3", entries)
    assert not ok
    assert section["status"] == "fail"
    assert section["catalog"][0]["tags_verified"] is False


# -- the CLI end to end ------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_classify_json(capsys):
    code, out = run_cli(capsys, "classify", "--ring", "Zn:6", "--format", "json",
                        "--no-cache")
    assert code == 0
    report = json.loads(out)
    assert report["profiles"][0]["ring"] == "Zn:6"
    assert report["profiles"][0]["ssp"]["holds"] is True
    assert report["tool"]["name"] == "ringlab"


def test_cli_decompose_json(capsys):
    code, out = run_cli(capsys, "decompose", "--ring", "Zn:6", "--element", "3",
                        "--format", "json", "--no-cache")
    assert code == 0
    report = json.loads(out)
    assert report["decomposition"]["idempotent"] == 4
    assert report["decomposition"]["unit"] == 5
    assert report["trace"]["trace_version"] == 1
    assert report["verification"]["all_passed"] is True


def test_cli_decompose_explicit_b(capsys):
    code, out = run_cli(capsys, "decompose", "--ring", "M2:Zn:2",
                        "--element", "[[1,0],[0,0]]", "--b", "[[1,0],[0,1]]",
                        "--format", "json", "--no-cache")
    assert code == 0
    report = json.loads(out)
    assert report["verification"]["all_passed"] is True


def test_cli_decompose_rejects_bad_element(capsys):
    code, _ = run_cli(capsys, "decompose", "--ring", "Zn:4", "--element", "2",
                      "--no-cache")
    assert code == 2  # 2 is not regular mod 4: hypothesis violation is a usage error


def test_cli_decompose_outside_the_hypotheses_is_a_usage_error(capsys):
    # T2:Zn:3 is not SSP: on this regular unimodular pair the construction
    # finds no candidate at step 9, which is no defect of the code
    ring = parse_ring_spec("T2:Zn:3")
    a, b = format_element(ring, 9), format_element(ring, 4)
    with pytest.raises(ConstructionAbort) as exc:
        solve_unimodular(ring, 9, 4)
    assert exc.value.step == 9
    code = main(["decompose", "--ring", "T2:Zn:3", "--element", a, "--b", b, "--no-cache"])
    assert code == 2
    assert "not summand-sum closed (ssp)" in capsys.readouterr().err
    code, _ = run_cli(capsys, "decompose", "--ring", "Zn:6", "--element", "3",
                      "--b", "2", "--no-cache")
    assert code == 0


def test_cli_verify_table(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "C2.6", "--format", "table",
                        "--no-cache")
    assert code == 0
    assert "T2:Zn:3" in out and "C2.6" in out


def test_cli_verify_csv(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "L2.3", "--format", "csv",
                        "--no-cache")
    assert code == 0
    head = out.splitlines()[0]
    assert head == "ring,suite,hypothesis_met,conditions,equivalent,witnesses"


def test_cli_exit_codes_for_usage_errors(capsys):
    code, _ = run_cli(capsys, "classify", "--ring", "Zn:x", "--no-cache")
    assert code == 2
    code, _ = run_cli(capsys, "classify", "--ring", "M2:Zn:9", "--no-cache")
    assert code == 2
    code, _ = run_cli(capsys, "verify", "--suite", "nope", "--no-cache")
    assert code == 2
    code, _ = run_cli(capsys, "hunt", "--property", "zorp", "--max-size", "6",
                      "--no-cache")
    assert code == 2


def test_cli_exit_code_on_tag_failure(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"spec": "T2:Zn:3", "tags": ["ssp"]}]))
    code, out = run_cli(capsys, "verify", "--suite", "L2.3", "--catalog", str(path),
                        "--format", "json", "--no-cache")
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    assert report["catalog"][0]["mismatches"]


@pytest.mark.parametrize("data, message", [
    ([{"tags": ["ic"]}], "catalog entry 0 "),
    ({"spec": "Zn:6"}, "must be a JSON list"),
    ([{"spec": "Zn:6", "tags": "ic"}], "catalog entry 0 "),
    ([{"spec": "Zn:6", "tags": []}, {"spec": "Zn:4", "tags": ["ic"], "provenance": []}],
     "catalog entry 1 "),
])
def test_cli_malformed_catalog_is_a_usage_error(capsys, tmp_path, data, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    code = main(["verify", "--suite", "L2.3", "--catalog", str(path), "--no-cache"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def test_cli_unknown_tag_is_rejected_before_any_ring_is_built(capsys, tmp_path, monkeypatch):
    path = tmp_path / "typo.json"

    def no_ring(*_, **__):
        raise AssertionError("a ring was built before the tags were checked")

    monkeypatch.setattr("ringlab.cli.parse_ring_spec", no_ring)
    for tags in (["icc"], ["not-icc"]):
        path.write_text(json.dumps([{"spec": "M2:Zn:5", "tags": tags}]))
        code = main(["verify", "--suite", "all", "--catalog", str(path), "--no-cache"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "ringlab: error: unknown catalog tag 'icc'\n"


def test_cli_decompose_table(capsys):
    code, out = run_cli(capsys, "decompose", "--ring", "Zn:6", "--element", "3",
                        "--format", "table", "--no-cache")
    assert code == 0
    assert "idempotent_e" in out and "all_checks_passed  yes" in out


def test_cli_hunt_csv(capsys):
    code, out = run_cli(capsys, "hunt", "--property", "abelian", "--max-size", "4",
                        "--format", "csv", "--no-cache")
    assert code == 0
    assert out.splitlines()[0] == "ring,size,properties"


def test_cli_hunt_json(capsys):
    code, out = run_cli(capsys, "hunt", "--property", "ic&!ssp", "--max-size", "27",
                        "--format", "json", "--no-cache")
    assert code == 0
    report = json.loads(out)
    assert "T2:Zn:3" in [m["spec"] for m in report["matches"]]


def test_cli_reports_identical_across_runs(capsys):
    _, out1 = run_cli(capsys, "verify", "--suite", "all", "--format", "json",
                      "--no-cache")
    _, out2 = run_cli(capsys, "verify", "--suite", "all", "--format", "json",
                      "--no-cache")
    a = json.dumps(strip_timing(json.loads(out1)), sort_keys=True)
    b = json.dumps(strip_timing(json.loads(out2)), sort_keys=True)
    assert a.encode() == b.encode()


def test_cli_cache_round_trip(capsys, tmp_path):
    cache_file = tmp_path / "cache.json"
    code, cold = run_cli(capsys, "verify", "--suite", "C2.6", "--format", "json",
                         "--cache", str(cache_file))
    assert code == 0 and cache_file.exists()
    payload = json.loads(cache_file.read_text())
    assert payload["version"] == __import__("ringlab").__version__
    code, warm = run_cli(capsys, "verify", "--suite", "C2.6", "--format", "json",
                         "--cache", str(cache_file))
    assert code == 0
    a = json.dumps(strip_timing(json.loads(cold)), sort_keys=True)
    b = json.dumps(strip_timing(json.loads(warm)), sort_keys=True)
    assert a == b


def test_cache_file_is_the_sorted_json_dump_of_its_payload(tmp_path):
    path = tmp_path / "cache.json"
    cache = ResultCache(path, "0.1.0")
    cache.put("Zn:6", "profile", {"ssp": {"holds": True, "checked": 4}, "size": 6})
    cache.put("M2:Zn:2", "suite:C2.6", {"witnesses": {}, "conditions": {"2": True}})
    cache.save()
    payload = {"version": "0.1.0", "fingerprint": cache.fingerprint,
               "entries": cache._entries}
    assert path.read_bytes() == json.dumps(payload, sort_keys=True).encode("utf-8")


def test_commands_never_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, so no command path uses it
    script = ("import sys\n"
              "from ringlab.cli import main\n"
              "assert main(['verify', '--suite', 'all', '--no-cache', '--format', 'json']) == 0\n"
              "assert main(['classify', '--ring', 'T2:Zn:3', '--no-cache']) == 0\n"
              "print('numpy.ma' in sys.modules, file=sys.stderr)\n")
    src = str(Path(__import__("ringlab").__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr.strip().splitlines()[-1] == "False"


def test_cache_version_invalidation(tmp_path):
    path = tmp_path / "cache.json"
    stale = ResultCache(path, "0.0.0-old")
    stale.put("Zn:6", "profile", {"stale": True})
    stale.save()
    fresh = ResultCache(path, "0.1.0")
    assert fresh.get("Zn:6", "profile") is None


def test_cache_ignores_a_file_from_other_sources(tmp_path):
    path = tmp_path / "cache.json"
    version = __import__("ringlab").__version__
    path.write_text(json.dumps({"version": version, "fingerprint": "other sources",
                                "entries": {"Zn:6||profile": {"stale": True}}}))
    assert ResultCache(path, version).get("Zn:6", "profile") is None
    path.write_text("[]")  # valid JSON, but not a cache file
    assert ResultCache(path, version).get("Zn:6", "profile") is None


@pytest.mark.parametrize("entries", [[1, 2], {"Zn:6||profile": "oops"}],
                         ids=["entries-a-list", "entry-a-string"])
def test_cache_ignores_malformed_entries(capsys, tmp_path, entries):
    path = tmp_path / "cache.json"
    version = __import__("ringlab").__version__
    path.write_text(json.dumps({"version": version, "entries": entries,
                                "fingerprint": ResultCache(path, version).fingerprint}))
    code, out = run_cli(capsys, "classify", "--ring", "Zn:6", "--format", "json",
                        "--cache", str(path))
    assert code == 0
    assert json.loads(out)["profiles"] == [ring_profile(parse_ring_spec("Zn:6"))]


def test_an_unwritable_cache_path_is_a_usage_error(capsys, tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    code = main(["classify", "--ring", "Zn:6", "--cache", str(blocker / "cache.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("ringlab: error:") and "Traceback" not in err


_DEEP_SPEC = "op:" * 1200 + "Zn:6"
_DEEP_LITERAL = "-" * 5000 + "1"


@pytest.mark.parametrize("argv, files, want", [
    (["hunt", "--property", "1ic", "--max-size", "6"], {}, 2),
    (["hunt", "--property", "ic&" * 4999 + "ic", "--max-size", "6"], {}, 2),
    (["hunt", "--property", "ic&" * 990 + "ic", "--max-size", "6"], {}, 2),
    (["hunt", "--property", "!" * 5000 + "ic", "--max-size", "6"], {}, 2),
    (["hunt", "--property", "(" * 1200 + "ic" + ")" * 1200, "--max-size", "6"], {}, 2),
    (["classify", "--ring", _DEEP_SPEC], {}, 2),
    (["decompose", "--ring", "Zn:6", "--element=" + _DEEP_LITERAL], {}, 2),
    (["decompose", "--ring", "Zn:6", "--element=" + "-" * 100_000 + "1"], {}, 2),
    (["decompose", "--ring", "Zn:6", "--element", "3", "--b=" + _DEEP_LITERAL], {}, 2),
    (["verify", "--catalog", "deep.json"], {"deep.json": "[" * 100_000 + "]" * 100_000}, 2),
    (["verify", "--catalog", "spec.json"],
     {"spec.json": json.dumps([{"spec": _DEEP_SPEC, "tags": []}])}, 2),
    (["verify", "--catalog", "spec.json", "--jobs", "2"],
     {"spec.json": json.dumps([{"spec": _DEEP_SPEC, "tags": []}])}, 2),
    (["classify", "--ring", "Zn:6", "--cache", "cache.json"],
     {"cache.json": '{"a":' * 50_000 + "1" + "}" * 50_000}, 0),
], ids=["property-1ic", "property-chain-5000", "property-chain-991", "property-not-5000",
        "property-parens-1200", "spec-op-1200", "element-minus-5000", "element-minus-100000",
        "b-minus-5000", "catalog-arrays-100000", "catalog-spec-op-1200",
        "catalog-spec-op-1200-jobs-2", "cache-objects-50000"])
def test_deep_input_ends_without_a_traceback(argv, files, want, capsys, tmp_path):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    if "--cache" not in argv:
        argv.append("--no-cache")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == want
    err = capsys.readouterr().err
    assert caught == []
    if want == 0:
        assert err == ""
    else:
        assert err.startswith("ringlab: error: ") and err.count("\n") == 1


def test_warm_verify_reads_tags_from_the_cached_profiles(monkeypatch, tmp_path):
    path = tmp_path / "cache.json"
    version = __import__("ringlab").__version__
    cold_cache = ResultCache(path, version)
    cold, cold_ok = run_verify("all", cache=cold_cache)
    cold_cache.save()

    def forbidden(*_):
        raise AssertionError("a warm verify recomputed a ring")

    monkeypatch.setattr("ringlab.cli.ring_profile", forbidden)
    monkeypatch.setattr("ringlab.cli.parse_ring_spec", forbidden)
    warm, warm_ok = run_verify("all", cache=ResultCache(path, version))
    assert warm_ok == cold_ok
    assert json.dumps(strip_timing(warm), sort_keys=True) == \
        json.dumps(strip_timing(cold), sort_keys=True)


def test_cache_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("RINGLAB_CACHE", str(tmp_path / "env-cache.json"))
    assert default_cache_path() == tmp_path / "env-cache.json"
    monkeypatch.delenv("RINGLAB_CACHE")
    assert default_cache_path().name == "results.json"


def test_cli_json_builds_no_table_rows(capsys, monkeypatch):
    argv = ("verify", "--suite", "all", "--format", "json", "--no-cache")
    _, want = run_cli(capsys, *argv)

    def forbidden(*_):
        raise AssertionError("a JSON report built table rows")

    monkeypatch.setattr("ringlab.cli.suite_rows", forbidden)
    monkeypatch.setattr("ringlab.cli.tag_rows", forbidden)
    code, got = run_cli(capsys, *argv)
    assert code == 0
    assert json.dumps(strip_timing(json.loads(got)), sort_keys=True) == \
        json.dumps(strip_timing(json.loads(want)), sort_keys=True)


@pytest.mark.parametrize("argv", [("classify", "--ring", "Zn:6"),
                                  ("decompose", "--ring", "Zn:6", "--element", "3"),
                                  ("hunt", "--property", "ic", "--max-size", "6")])
def test_only_verify_takes_jobs(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (("verify", "--suite", "C2.6", "--jobs", "0"), "--jobs"),
    (("verify", "--suite", "C2.6", "--jobs", "-4"), "--jobs"),
    (("hunt", "--property", "ssp", "--max-size", "-5"), "--max-size"),
    (("hunt", "--property", "ssp", "--max-size", "0"), "--max-size"),
])
def test_counts_below_one_are_usage_errors(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--no-cache"])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least 1" in capsys.readouterr().err


def test_a_max_size_of_one_is_accepted(capsys):
    code, out = run_cli(capsys, "hunt", "--property", "ssp", "--max-size", "1",
                        "--format", "json", "--no-cache")
    assert code == 0
    assert json.loads(out)["max_size"] == 1


@pytest.mark.parametrize("max_size", ["4097", "1000000000"])
def test_a_max_size_above_the_cap_is_refused_before_any_candidate(max_size, capsys,
                                                                   monkeypatch):
    def forbidden(*_):
        raise AssertionError("hunt listed or built a candidate")

    monkeypatch.setattr("ringlab.cli._hunt_candidates", forbidden)
    monkeypatch.setattr("ringlab.cli.parse_ring_spec", forbidden)
    with pytest.raises(SystemExit) as exc:
        main(["hunt", "--property", "ssp", "--max-size", max_size, "--no-cache"])
    assert exc.value.code == 2
    assert "argument --max-size: must be at most the size cap of 4096" in \
        capsys.readouterr().err


def test_a_max_size_at_the_cap_is_accepted(capsys, monkeypatch):
    monkeypatch.setattr("ringlab.cli._hunt_candidates", lambda max_size: [])
    code, out = run_cli(capsys, "hunt", "--property", "ssp", "--max-size", "4096",
                        "--format", "json", "--no-cache")
    assert code == 0
    assert json.loads(out)["max_size"] == 4096


def test_parallel_verify_times_every_ring(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "T2.4", "--format", "json",
                        "--no-cache", "--jobs", "2")
    assert code == 0
    assert sorted(json.loads(out)["timing"]["per_ring_s"]) == \
        sorted(e.spec for e in default_catalog())


def test_cli_jobs_matches_serial(capsys):
    _, serial = run_cli(capsys, "verify", "--suite", "C2.6", "--format", "json",
                        "--no-cache", "--jobs", "1")
    _, parallel = run_cli(capsys, "verify", "--suite", "C2.6", "--format", "json",
                          "--no-cache", "--jobs", "2")
    a, b = json.loads(serial), json.loads(parallel)
    for report in (a, b):
        del report["command"]  # the echoed --jobs value legitimately differs
    assert json.dumps(strip_timing(a), sort_keys=True) == \
        json.dumps(strip_timing(b), sort_keys=True)


@pytest.mark.parametrize("spec", ["Zn:x", "Zn:5000"])
def test_parallel_verify_reports_entry_errors_like_the_serial_path(spec, capsys, tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps([{"spec": spec, "tags": ["ic"]}]))
    errors = []
    for jobs in ("1", "2"):
        code = main(["verify", "--catalog", str(path), "--no-cache", "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
