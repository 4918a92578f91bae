import pytest

from cycliccover.catalog import (
    CatalogEntry,
    abelian_torsion_scenario,
    default_catalog,
    evaluate_entry,
    geiser_scenario,
    hirzebruch2_scenario,
    projective_space_scenario,
)
from cycliccover.engine import (
    max_guaranteed_jet_order,
    max_guaranteed_very_order,
)


def test_projective_space_profile_clamps():
    s = projective_space_scenario(3, 2, 2, 3)
    assert s.profile.jet_order(0) == 2
    assert s.profile.jet_order(1) == 0
    assert s.profile.jet_order(2) == -1  # 2 - 4 clamped


def test_projective_space_sharp_at_d_minus_one():
    for r in range(2, 7):
        for d in range(2, 7):
            s = projective_space_scenario(2, (d - 1) * r, r, d)
            assert max_guaranteed_jet_order(s).k_star == d - 1


def test_projective_space_trivial_bundle():
    s = projective_space_scenario(2, 0, 2, 2)
    assert max_guaranteed_jet_order(s).k_star == 0


def test_projective_space_independent_of_dimension():
    for n in (1, 2, 5):
        s = projective_space_scenario(n, 4, 2, 2)
        assert max_guaranteed_jet_order(s).k_star == \
            max_guaranteed_jet_order(projective_space_scenario(1, 4, 2, 2)).k_star


def test_projective_space_validation():
    with pytest.raises(ValueError):
        projective_space_scenario(0, 2, 2, 2)
    with pytest.raises(ValueError):
        projective_space_scenario(2, 2, 1, 2)


def test_geiser_very_ample_from_two():
    for k in range(2, 21):
        s = geiser_scenario(k)
        assert max_guaranteed_very_order(s).k_star >= k


def test_geiser_small_k():
    assert max_guaranteed_very_order(geiser_scenario(0)).k_star == 0
    assert max_guaranteed_very_order(geiser_scenario(1)).k_star <= 1


def test_hirzebruch_engine_conditions():
    # a >= k+1 and b >= 2a+k satisfy both twist constraints.
    for k in range(0, 6):
        for a in range(k + 1, k + 4):
            for b in range(2 * a + k, 2 * a + k + 3):
                s = hirzebruch2_scenario(a, b)
                assert max_guaranteed_jet_order(s).k_star >= k


def test_hirzebruch_paper_instance():
    assert max_guaranteed_jet_order(hirzebruch2_scenario(3, 9)).k_star == 2


def test_hirzebruch_trivial():
    assert max_guaranteed_jet_order(hirzebruch2_scenario(0, 0)).k_star == 0


def test_hirzebruch_quoted_borderline_fails_engine():
    # (a, b) = (k+1, 3k): the quoted closed form accepts it, the
    # engine-derived conditions do not.
    for k in range(2, 6):
        s = hirzebruch2_scenario(k + 1, 3 * k)
        assert max_guaranteed_jet_order(s).k_star < k


def test_abelian_tightness():
    for k in range(0, 11):
        for d in range(2, 7):
            s = abelian_torsion_scenario(k + 2, d)
            assert not s.branched
            assert max_guaranteed_jet_order(s).k_star == k


def test_abelian_principal_not_generated():
    s = abelian_torsion_scenario(1, 5)
    assert max_guaranteed_jet_order(s).k_star == -1
    assert max_guaranteed_very_order(s).k_star == -1


def test_catalog_claims_hold():
    for entry in default_catalog():
        for result in evaluate_entry(entry):
            if result.claim.provenance != "informational":
                assert result.holds, (entry.id, result)


def catalog_entry(entry_id):
    return next(e for e in default_catalog() if e.id == entry_id)


def test_catalog_informational_borderline_reported_not_met():
    entry = catalog_entry("bertini-quoted-borderline")
    results = evaluate_entry(entry)
    assert all(r.claim.provenance == "informational" for r in results)
    assert not any(r.holds for r in results)


def test_catalog_entries_hash_and_equal_across_builds():
    first, second = default_catalog(), default_catalog()
    assert first == second
    assert [hash(e) for e in first] == [hash(e) for e in second]
    assert len(set(first)) == len(first)
    assert len({e.scenario() for e in first}) == len(first)


def test_default_catalog_is_a_new_list_of_the_same_entries():
    first, second = default_catalog(), default_catalog()
    assert first is not second
    assert all(a is b for a, b in zip(first, second, strict=True))
    first.clear()
    assert default_catalog() == second


def test_evaluate_entry_runs_only_the_criteria_its_claims_name(monkeypatch):
    import cycliccover.catalog as catalog

    calls = []

    def counted(kind, decide):
        def decide_counted(scenario):
            calls.append(kind)
            return decide(scenario)
        return decide_counted

    for kind in ("jet", "very"):
        name = f"max_guaranteed_{kind}_order"
        monkeypatch.setattr(catalog, name, counted(kind, getattr(catalog, name)))
    for entry in default_catalog():
        calls.clear()
        results = evaluate_entry(entry)
        assert sorted(calls) == sorted({c.kind for c in entry.claims}), entry.id
        assert [r.claim for r in results] == list(entry.claims)


def test_catalog_entry_parameters_are_read_only():
    entry = catalog_entry("bertini")
    with pytest.raises(TypeError):
        entry.parameters["a"] = 0
    reordered = CatalogEntry(entry.id, entry.description, {"b": 9, "a": 3},
                             entry.builder, entry.claims, entry.notes)
    assert reordered == entry and hash(reordered) == hash(entry)
    assert reordered.scenario() == entry.scenario()
