import json
import math

import numpy as np
import pytest

from hardyhilbert import bmoa, harness, hardyspace, inequalities, seqspace
from hardyhilbert.harness import (
    DEFAULT_CASES,
    SuiteConfig,
    run_suite,
    sample_polynomial,
    sample_xsequence,
)
from conftest import fresh_python

SMALL = SuiteConfig(seed=42, cases={
    "bridge_identity": 20,
    "norm_scaling": 15,
    "slow_decay_certificate": 6,
    "pairing_phase_identity": 10,
    "hardy_degree_bound": 6,
    "factorization_contract": 6,
    "witness_closure": 4,
    "carleson_bounded": 3,
})

# one op list per engine module: the default suite must touch every one
COVERAGE = {
    seqspace: ["xnorm", "prefix_ratios", "classic_sequence", "slow_decay_sequence",
               "slow_decay_report"],
    hardyspace: ["hp_norm", "cauchy_product", "dual_pairing", "factorization_report",
                 "phase_sequence"],
    bmoa: ["k_constant", "carleson_constant", "bmo_seminorm"],
    inequalities: ["hardy_sum", "hardy_ratio", "hilbert_form", "matrix_norm",
                   "equivalence_witness", "best_constant_scan",
                   "hardy_degree_bound_check"],
}


class TestDeterminism:
    def test_same_seed_same_report_bytes(self):
        a = run_suite(SMALL)
        b = run_suite(SMALL)
        assert a.to_json() == b.to_json()

    def test_same_bytes_across_hash_seeds(self):
        # the test above compares two reports made in one process; these
        # are made by two fresh interpreters with different string hashes
        runs = [fresh_python("-m", "hardyhilbert.cli", "suite", "--seed", "7",
                             PYTHONHASHSEED=seed) for seed in ("1", "2")]
        assert [run.code for run in runs] == [0, 0]
        assert runs[0].out == runs[1].out

    def test_different_seed_different_stream(self):
        a = run_suite(SMALL)
        b = run_suite(SuiteConfig(seed=43, cases=dict(SMALL.cases)))
        assert a.passed and b.passed
        assert a.to_json() != b.to_json()  # worst margins shift with the stream

    def test_default_suite_passes(self):
        report = run_suite(SuiteConfig(seed=0))
        assert report.passed
        assert all(p.failures == 0 for p in report.properties)
        assert {p.name for p in report.properties} == set(DEFAULT_CASES)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_default_suite_passes_at_more_seeds(self, seed):
        # perfbench's certify workload runs `suite --seed <its seed>`, so a
        # failure at any seed fails one of its jobs
        report = run_suite(SuiteConfig(seed=seed))
        assert [(p.name, p.failures) for p in report.properties if p.failures] == []

    def test_report_schema(self):
        report = run_suite(SMALL)
        payload = report.to_dict()
        assert set(payload) == {"properties", "pass", "seed", "fingerprint"}
        for prop in payload["properties"]:
            assert set(prop) == {"name", "cases", "failures", "worst_margin", "witnesses"}


class TestMutationDetection:
    def test_corrupted_bilinear_form_is_caught(self, monkeypatch):
        original = inequalities.hilbert_form

        def dropped_first_row(a, b, c):
            a = np.atleast_1d(np.asarray(a))
            if a.size > 1:
                a = a.copy()
                a[0] = 0.0
            return original(a, b, c)

        monkeypatch.setattr(inequalities, "hilbert_form", dropped_first_row)
        report = run_suite(SMALL)
        bridge = next(p for p in report.properties if p.name == "bridge_identity")
        assert bridge.failures > 0
        assert bridge.witnesses, "failures must carry re-runnable inputs"
        wit = bridge.witnesses[0]
        assert {"a", "b", "c"} <= set(wit)
        assert not report.passed
        assert '"pass": false' in report.to_json()  # failing report serializes too

    def test_dropped_power_picks_are_caught(self, monkeypatch):
        # every value 1/n: margins, certificate and export bound still pass,
        # so only the check of values() against the np.power rule can fail;
        # a trace whose only power pick is c_1 = 1 (= 1/1) passes it too
        monkeypatch.setattr(seqspace, "_values_block", lambda r, n, flags: 1.0 / n)
        report = run_suite(SuiteConfig(seed=3))
        prop = next(p for p in report.properties if p.name == "slow_decay_certificate")
        assert prop.failures >= prop.cases - 1
        assert prop.witnesses and {"r", "beta", "N"} <= set(prop.witnesses[0])
        assert not report.passed

    def test_witness_inputs_rerun_to_the_failure(self, monkeypatch):
        original = inequalities.hilbert_form

        def dropped_first_row(a, b, c):
            a = np.atleast_1d(np.asarray(a)).copy()
            if a.size > 1:
                a[0] = 0.0
            return original(a, b, c)

        monkeypatch.setattr(inequalities, "hilbert_form", dropped_first_row)
        report = run_suite(SMALL)
        wit = next(p for p in report.properties if p.name == "bridge_identity").witnesses[0]
        monkeypatch.setattr(inequalities, "hilbert_form", original)
        lhs = inequalities.hilbert_form(wit["a"], wit["b"], seqspace.XSequence(wit["c"]))
        assert lhs == pytest.approx(wit["rhs"], rel=1e-12)  # clean build reproduces the truth
        assert wit["lhs"] != pytest.approx(wit["rhs"], rel=1e-12)


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


# the inputs each property records with a failing case, besides "case"
WITNESS_KEYS = {
    "bridge_identity": {"a", "b", "c", "lhs", "rhs"},
    "norm_scaling": {"values", "lam"},
    "slow_decay_certificate": {"r", "beta", "N"},
    "pairing_phase_identity": {"f", "c"},
    "hardy_degree_bound": {"f", "c", "lhs", "rhs"},
    "factorization_contract": {"f", "residual", "defect"},
    "witness_closure": {"c", "N", "gap"},
    "carleson_bounded": {"c", "variant"},
}


class TestNanMargin:
    def test_nan_form_fails_every_case(self, monkeypatch):
        monkeypatch.setattr(inequalities, "hilbert_form", lambda a, b, c: float("nan"))
        report = run_suite(SMALL)
        bridge = next(p for p in report.properties if p.name == "bridge_identity")
        assert bridge.failures == bridge.cases == SMALL.cases["bridge_identity"]
        assert math.isnan(bridge.worst_margin)
        assert not report.passed
        payload = strict_json(report.to_json())
        prop = next(p for p in payload["properties"] if p["name"] == "bridge_identity")
        assert prop["worst_margin"] is None
        assert len(prop["witnesses"]) == 5
        assert all(w["lhs"] is None and isinstance(w["rhs"], float) for w in prop["witnesses"])

    def test_report_never_writes_nan(self):
        raw = harness.PropertyResult("bridge_identity", 1, 1, 1.0, [{"lhs": float("nan")}])
        report = harness.SuiteReport([raw], passed=False, seed=0, fingerprint={})
        with pytest.raises(ValueError):
            report.to_json()


class TestCaseCounts:
    @pytest.mark.parametrize("n", [0, -3])
    def test_count_below_one_rejected(self, n):
        config = SuiteConfig(cases={"bridge_identity": n})
        with pytest.raises(ValueError, match="bridge_identity"):
            config.case_count("bridge_identity")
        with pytest.raises(ValueError):
            run_suite(config)


class TestWitnessPaths:
    def test_every_property_records_its_inputs(self, monkeypatch):
        def failing(check):
            def shifted(rng, case):
                margin, inputs = check(rng, case)
                return np.max(margin) + 1.0, inputs
            return shifted

        assert list(harness._CHECKS) == list(DEFAULT_CASES)
        for name, check in list(harness._CHECKS.items()):
            monkeypatch.setitem(harness._CHECKS, name, failing(check))
        report = run_suite(SMALL)
        assert not report.passed
        payload = strict_json(report.to_json())
        for prop in payload["properties"]:
            name, cases = prop["name"], prop["cases"]
            assert prop["failures"] == cases, name
            assert [w["case"] for w in prop["witnesses"]] == list(range(min(cases, 5))), name
            for wit in prop["witnesses"]:
                assert set(wit) == {"case"} | WITNESS_KEYS[name], name
                if "f" in wit:
                    assert set(wit["f"]) == {"re", "im"}
                if "c" in wit:
                    assert all(isinstance(v, float) for v in wit["c"])


class TestCoverageFloor:
    def test_every_engine_op_invoked(self, monkeypatch):
        counts = {}

        def wrap(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, names in COVERAGE.items():
            for name in names:
                wrap(module, name)
        run_suite(SMALL)
        missing = [n for names in COVERAGE.values() for n in names if n not in counts]
        assert not missing, f"ops never invoked: {missing}"


class TestSamplers:
    def test_single_entry_sequence(self):
        rng = np.random.default_rng(0)
        c = sample_xsequence(rng, 1)
        assert len(c) == 1
        assert c.values[0] > 0

    def test_requested_length(self):
        rng = np.random.default_rng(1)
        for N in (1, 2, 17, 96):
            assert len(sample_xsequence(rng, N)) == N

    def test_normalized_variant_has_unit_norm(self):
        rng = np.random.default_rng(2)
        seen = False
        for _ in range(30):
            c = sample_xsequence(rng, 40)
            norm = seqspace.xnorm(c)
            if not np.array_equal(c.values, seqspace.classic_sequence(40).values) \
                    and abs(norm - 1.0) <= 1e-12:
                seen = True
        assert seen

    def test_factorization_samples_keep_roots_off_circle(self):
        rng = np.random.default_rng(3)
        for d in range(1, 17):
            for _ in range(20):
                f = sample_polynomial(rng, d)
                assert np.abs(np.abs(np.roots(f.coeffs[::-1])) - 1.0).min() >= 0.05

    def test_plain_samples_honor_degree(self):
        rng = np.random.default_rng(4)
        for d in range(1, 17):
            for _ in range(20):
                assert sample_polynomial(rng, d).degree == d
