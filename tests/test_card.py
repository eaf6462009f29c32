import json
import pathlib

import pytest

from smdcard.aggregate import assemble_report, make_result
from smdcard.card import (CLARITY_ITEMS, build_card, card_from_json,
                          digest_of, documentation_clarity_score, field_labels,
                          render, render_html, render_markdown)
from smdcard.config import config_from_dict
from smdcard.errors import CardError, InputError

GOLDEN = pathlib.Path(__file__).parent / "data" / "card_fields_golden.json"

FULL_MANIFEST = {
    "general": {
        "name": "demo-synthetic-mri",
        "release_date": "2025-06-01",
        "version_history": "1.0 initial release",
        "dataset_size": "1000 volumes",
        "dataset_modality": "MRI",
        "dataset_provenance": "diffusion model sampled from scratch",
        "dataset_intended_use": "augmentation for lesion detection",
        "dataset_labels": "binary lesion masks",
        "attribution_licensing": "CC-BY-4.0",
        "point_of_contact": "data-team@example.org",
    },
    "task_evaluation": {"task_performance": "AUC 0.91 on holdout",
                        "task_metrics": "sensitivity >= 0.85 required"},
    "human_evaluation": {"human_study_design": "3 radiologists, 2AFC",
                         "reader_study_results": "61% real-vs-synthetic",
                         "observations_failure_cases": "rim artifacts"},
    "ethical_legal": {"privacy_anonymization": "trained on de-identified data",
                      "biases": "site A overrepresented",
                      "limitations": "no pediatric cases",
                      "recommendations": "augmentation only"},
    "usage": {"repository_access": "doi:10.0000/demo",
              "preprocessing_requirements": "resample to 1mm",
              "user_documentation": "README.md",
              "intended_audience": "researchers"},
    "generation": {"generation_method": "latent diffusion",
                   "generation_parameters": {"steps": 50, "cfg": 4.0},
                   "training_validation_process": "5-fold validation"},
    "reference_dataset": {"purpose": "training corpus",
                          "origin_source": "site A and B, 2019-2022",
                          "dataset_size": "1400 patients",
                          "clinical_population": "adults 30-80",
                          "acquisition_devices": "3T scanners",
                          "reference_standard": "consensus reads",
                          "ground_truth_labels": "expert masks",
                          "metadata": "age, sex",
                          "preprocessing": "defacing, bias correction",
                          "known_limitations": "single-country cohort"},
}


def _report():
    cfg = config_from_dict({"metrics": ["cosine_similarity"]})
    return assemble_report({("global", "cosine_similarity"):
                            make_result("cosine_similarity", 0.64)}, cfg,
                           seed=3, config_digest="c" * 64,
                           tool={"name": "smdcard", "version": "0.0"})


class TestSchema:
    def test_field_labels_match_golden_list(self):
        golden = json.loads(GOLDEN.read_text())
        assert field_labels() == golden

    def test_rendered_labels_cover_schema(self):
        import html as html_lib
        card = build_card(FULL_MANIFEST, _report(), report_digest="a" * 64)
        md = render_markdown(card)
        html = render_html(card)
        for section, labels in field_labels().items():
            assert section in md
            assert html_lib.escape(section) in html
            for label in labels:
                assert f"| {label} |" in md
                assert f"<td>{html_lib.escape(label)}</td>" in html


class TestBuildCard:
    def test_complete_card(self):
        card = build_card(FULL_MANIFEST, _report(), report_digest="a" * 64)
        assert card.field_value("general", "name") == "demo-synthetic-mri"
        assert card.quality["congruence"]["verdict"] in ("good", "moderate",
                                                         "low")
        assert card.report_digest == "a" * 64

    def test_missing_section_renders_not_provided(self):
        manifest = {k: v for k, v in FULL_MANIFEST.items()
                    if k != "human_evaluation"}
        card = build_card(manifest, _report())
        assert card.field_value("human_evaluation",
                                "human_study_design") == "not provided"

    def test_name_required(self):
        manifest = dict(FULL_MANIFEST)
        manifest["general"] = {k: v for k, v in FULL_MANIFEST["general"].items()
                               if k != "name"}
        with pytest.raises(CardError, match="general.name"):
            build_card(manifest, _report())

    def test_unknown_manifest_key_rejected(self):
        manifest = dict(FULL_MANIFEST)
        manifest["general"] = dict(FULL_MANIFEST["general"], surprise=1)
        with pytest.raises(CardError, match="surprise"):
            build_card(manifest, _report())

    def test_pinned_digest_mismatch(self):
        manifest = dict(FULL_MANIFEST, report_digest="b" * 64)
        with pytest.raises(CardError, match="report changed"):
            build_card(manifest, _report(), report_digest="a" * 64)

    def test_pinned_digest_match_ok(self):
        manifest = dict(FULL_MANIFEST, report_digest="a" * 64)
        card = build_card(manifest, _report(), report_digest="a" * 64)
        assert card.report_digest == "a" * 64

    def test_no_report_not_evaluated(self):
        card = build_card(FULL_MANIFEST)
        assert card.quality["congruence"]["verdict"] == "not evaluated"
        # comprehension still computed from the manifest
        assert card.quality["comprehension"]["metrics"][0]["value"] == 10


class TestClarityRubric:
    def test_all_items_ten(self):
        score, items = documentation_clarity_score(FULL_MANIFEST)
        assert score == 10
        assert all(i["satisfied"] for i in items)

    def test_no_items_one(self):
        score, items = documentation_clarity_score({"general": {"name": "x"}})
        assert score == 1
        assert not any(i["satisfied"] for i in items)

    def test_exactly_four_items_five(self):
        manifest = {
            "general": {"name": "x", "version_history": "v1",
                        "point_of_contact": "a@b"},
            "generation": {"generation_method": "procedural"},
            "usage": {"preprocessing_requirements": "none"},
        }
        score, items = documentation_clarity_score(manifest)
        assert sum(i["satisfied"] for i in items) == 4
        assert score == 5

    def test_monotone_in_items(self):
        sections = {
            "general": {"name": "x"},
        }
        previous = documentation_clarity_score(sections)[0]
        additions = [
            ("generation", "generation_method", "gan"),
            ("generation", "generation_parameters", {"lr": 1e-4}),
            ("generation", "training_validation_process", "holdout"),
            ("general", "version_history", "v1"),
            ("reference_dataset", "purpose", "training"),
            ("usage", "preprocessing_requirements", "none"),
            ("general", "attribution_licensing", "MIT"),
            ("general", "point_of_contact", "a@b"),
            ("ethical_legal", "limitations", "small"),
        ]
        for section, key, value in additions:
            sections.setdefault(section, {})[key] = value
            score = documentation_clarity_score(sections)[0]
            assert score >= previous
            previous = score
        assert previous == 10

    def test_rubric_has_nine_items(self):
        assert len(CLARITY_ITEMS) == 9


class TestRendering:
    def test_structured_round_trip_byte_identical(self):
        card = build_card(FULL_MANIFEST, _report(), report_digest="a" * 64)
        payload = render(card, "structured")
        again = render(card_from_json(payload), "structured")
        assert payload == again

    def test_criterion_blocks_share_one_key_order(self):
        card = build_card(FULL_MANIFEST, _report())
        quality = json.loads(render(card, "structured"))["quality"]
        verdicts = {block["verdict"] for block in quality.values()}
        assert "not evaluated" in verdicts and len(verdicts) > 1
        assert {tuple(block)[:4] for block in quality.values()} == {
            ("score", "verdict", "excluded", "metrics")}

    def test_html_has_exactly_eight_sections(self):
        card = build_card(FULL_MANIFEST, _report())
        html = render_html(card)
        assert html.count("<section>") == 8
        assert html.count("<h2>") == 8

    def test_verdict_renders_with_its_score(self):
        cfg = config_from_dict({"metrics": ["cosine_similarity"]})
        report = assemble_report({("global", "cosine_similarity"):
                                  make_result("cosine_similarity", 0.64)},
                                 cfg, seed=1, config_digest="c" * 64,
                                 tool={"name": "smdcard", "version": "0.0"})
        # normalized (0.64 over [-1, 1]) = 82 -> good
        card = build_card(FULL_MANIFEST, report)
        md = render_markdown(card)
        assert "score 82.00 - verdict: good" in md

    def test_markdown_and_html_share_field_values(self):
        import html as html_lib
        card = build_card(FULL_MANIFEST, _report())
        md = render_markdown(card)
        html = render_html(card)
        for section_values in card.fields.values():
            for value in section_values.values():
                assert value in md
                assert html_lib.escape(value) in html

    @pytest.mark.parametrize("payload", [b"{}", b"not json", b"[]"])
    def test_malformed_card_document_rejected(self, payload):
        with pytest.raises(InputError, match="card document"):
            card_from_json(payload)

    def test_unknown_format_rejected(self):
        card = build_card(FULL_MANIFEST)
        with pytest.raises(CardError, match="format"):
            render(card, "pdf")

    def test_digest_of_stable(self):
        assert digest_of(b"abc") == digest_of(b"abc")
        assert digest_of(b"abc") != digest_of(b"abd")
