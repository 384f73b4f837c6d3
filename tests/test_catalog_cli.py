import json
import os

import pytest

from ringlab import (CapacityError, CatalogEntry, SpecParseError, default_catalog,
                     format_element, load_catalog, parse_element, parse_ring_spec,
                     ring_profile, verify_entry_tags)
from ringlab.cache import ResultCache, default_cache_path
from ringlab.cli import main, parse_property_expr, run_hunt, run_verify
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
        profile = ring_profile(catalog_rings[entry.spec]).to_json()
        assert verify_entry_tags(entry, profile) == []


def test_tag_mismatch_detected(t2z3):
    bogus = CatalogEntry(spec="T2:Zn:3", tags=("ssp",), provenance={"ssp": "computed"})
    mismatches = verify_entry_tags(bogus, ring_profile(t2z3).to_json())
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


def test_hunt_finds_triangular_ring():
    report = run_hunt("ic&!ssp", 27)
    specs = [m["spec"] for m in report["matches"]]
    assert "T2:Zn:3" in specs
    assert all(parse_ring_spec(s).size <= 27 for s in specs)


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
