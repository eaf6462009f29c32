"""The dataset card: schema, builder, clarity rubric, and renderers.

A card has eight sections: general information, the seven-criterion quality
scorecard, task-based results, human-based results, ethical/legal
considerations, usage, generation process, and reference-dataset
information. Descriptive sections come from a YAML manifest; the scorecard
section comes from an evaluation report and stays tamper-evident through the
report digest embedded at build time.

Sections 3 and 4 are pass-through by design: task-based and human-based
results are produced outside this library and are reported verbatim, never
computed here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import html as html_lib
import json
from dataclasses import dataclass

from . import catalog
from .aggregate import (DEFAULT_THRESHOLDS, QualityReport, make_result,
                        normalize, verdict)
from .documents import dumps_canonical
from .errors import CardError, InputError

NOT_PROVIDED = "not provided"

#: Card schema: (section key, section title, ((manifest key, field label), ...))
SECTIONS: tuple = (
    ("general", "1. Synthetic Data General Information", (
        ("name", "Name"),
        ("release_date", "Release Date"),
        ("version_history", "Version History"),
        ("dataset_size", "Dataset Size"),
        ("dataset_modality", "Dataset Modality"),
        ("dataset_provenance", "Dataset Provenance"),
        ("dataset_intended_use", "Dataset Intended Use"),
        ("dataset_labels", "Dataset Labels"),
        ("attribution_licensing", "Attribution and Licensing"),
        ("point_of_contact", "Point of Contact"),
    )),
    ("quality", "2. Data Quality Evaluation (7 Cs) Quantitative Results", (
        ("congruence", "Congruence"),
        ("coverage", "Coverage"),
        ("constraint", "Constraint"),
        ("completeness", "Completeness"),
        ("compliance", "Compliance"),
        ("comprehension", "Comprehension"),
        ("consistency", "Consistency"),
    )),
    ("task_evaluation", "3. Task-based Evaluation (Quantitative Results)", (
        ("task_performance", "Task Performance"),
        ("task_metrics", "Task-Specific Metrics"),
    )),
    ("human_evaluation", "4. Human-based Evaluation (Qualitative Results)", (
        ("human_study_design", "Human Study Design"),
        ("reader_study_results", "Reader Study Results"),
        ("observations_failure_cases", "Observations & Failure Cases"),
    )),
    ("ethical_legal", "5. Ethical, Legal, and Practical Considerations", (
        ("privacy_anonymization", "Privacy & Anonymization"),
        ("biases", "Biases"),
        ("limitations", "Limitations"),
        ("recommendations", "Recommendations"),
    )),
    ("usage", "6. Synthetic Dataset Usage", (
        ("repository_access", "Repository Access"),
        ("preprocessing_requirements", "Preprocessing Requirements"),
        ("user_documentation", "User Documentation"),
        ("intended_audience", "Intended Audience"),
    )),
    ("generation", "7. Synthetic Dataset Training & Validation Process", (
        ("generation_method", "Generation Method"),
        ("training_validation_process", "Training & Validation Process"),
    )),
    ("reference_dataset", "8. Reference Dataset General Information", (
        ("purpose", "Purpose"),
        ("origin_source", "Origin & Source"),
        ("dataset_size", "Dataset Size"),
        ("clinical_population", "Clinical Population"),
        ("acquisition_devices", "Acquisition Devices"),
        ("reference_standard", "Reference Standard"),
        ("ground_truth_labels", "Ground Truth Labels"),
        ("metadata", "Metadata"),
        ("preprocessing", "Preprocessing"),
        ("known_limitations", "Known Limitations"),
    )),
)

#: Manifest sections holding free text (section 2 is computed, never parsed).
_MANIFEST_SECTIONS = tuple(key for key, _, _ in SECTIONS if key != "quality")

#: Extra manifest keys that inform the card without being fields themselves.
_EXTRA_KEYS = {
    "generation": ("generation_parameters",),
}

#: Fixed interpretation notes rendered under the scorecard section.
SCORECARD_NOTES = (
    "Boundary-margin scoring: the nearest-invalid-datapoint metric is "
    "reported as the mean distance of valid records to the nearest "
    "constraint boundary; larger margins normalize to higher scores so the "
    "criterion rewards data that stays inside acceptable ranges.",
    "T-closeness is reported as a raw distance (0 = every group matches the "
    "global distribution); normalization inverts it so lower distances "
    "score higher.",
    "Differential-privacy parameters are declared by the generator and "
    "passed through unverified; the computed compliance signal is the "
    "empirical re-identification (near-duplicate) rate.",
    "The inception-style diversity score runs on externally supplied "
    "classifier probabilities; no classifier is bundled.",
    "The distribution-alignment distance runs on ingested feature "
    "embeddings, produced upstream of this tool.",
    "Consistency significance comes from seeded bootstrap resamples of each "
    "subgroup (the replicate count is recorded in the report).",
    "Metrics within a criterion carry equal weight unless the configuration "
    "overrides them; diversity-style metrics are scored against "
    "configured or calibrated reference bounds.",
)

#: The keys of a report's metric entry that the scorecard keeps.
_CARD_METRIC_KEYS = ("name", "label", "value", "normalized", "direction")

CLARITY_ITEMS = (
    ("generation_method_described", "generation", "generation_method"),
    ("generation_parameters_enumerated", "generation", "generation_parameters"),
    ("training_validation_described", "generation", "training_validation_process"),
    ("version_history_present", "general", "version_history"),
    ("reference_dataset_populated", "reference_dataset", None),
    ("preprocessing_documented", "usage", "preprocessing_requirements"),
    ("license_present", "general", "attribution_licensing"),
    ("contact_present", "general", "point_of_contact"),
    ("known_limitations_stated", "ethical_legal", "limitations"),
)


@dataclass(frozen=True)
class CardDocument:
    """A built card; fields in document order, so ``asdict`` serializes it."""

    fields: dict                      # section key -> field key -> text
    quality: dict                     # criterion -> scorecard block
    clarity: dict                     # rubric score and per-item results
    report_digest: str | None
    declared_privacy: dict
    notes: tuple[str, ...]

    def field_value(self, section: str, key: str) -> str:
        return self.fields[section][key]


def field_labels() -> dict[str, list[str]]:
    """Section title -> ordered field labels (the golden-list surface)."""
    return {title: [label for _, label in fields]
            for _, title, fields in SECTIONS}


def _as_text(value) -> str:
    if value is None:
        return NOT_PROVIDED
    if isinstance(value, (list, tuple)):
        return "; ".join(_as_text(v) for v in value)
    if isinstance(value, dict):
        return "; ".join(f"{k}={_as_text(v)}" for k, v in sorted(value.items()))
    return str(value)


def validate_manifest(manifest: dict) -> None:
    if not isinstance(manifest, dict):
        raise CardError("manifest must be a mapping")
    allowed_top = set(_MANIFEST_SECTIONS) | {"report_digest"}
    unknown = sorted(set(manifest) - allowed_top)
    if unknown:
        raise CardError(f"manifest has unknown section(s) {unknown}")
    for section_key, _, fields in SECTIONS:
        if section_key == "quality":
            continue
        block = manifest.get(section_key)
        if block is None:
            continue
        if not isinstance(block, dict):
            raise CardError(f"manifest section {section_key!r} must be a mapping")
        allowed = {key for key, _ in fields} | set(_EXTRA_KEYS.get(section_key, ()))
        unknown = sorted(set(block) - allowed)
        if unknown:
            raise CardError(f"manifest section {section_key!r} has unknown "
                            f"key(s) {unknown}")
    general = manifest.get("general") or {}
    if not _as_text(general.get("name")).strip() or general.get("name") is None:
        raise CardError("manifest must provide general.name")


def documentation_clarity_score(manifest: dict) -> tuple[int, list[dict]]:
    """Deterministic 1-10 clarity rubric over nine checklist items.

    Each satisfied item adds one point on top of a floor of 1, capped at 10.
    """
    items = []
    satisfied_count = 0
    for item_name, section, key in CLARITY_ITEMS:
        block = manifest.get(section) or {}
        if key is None:  # section populated at all
            satisfied = any(_provided(v) for v in block.values())
        else:
            satisfied = _provided(block.get(key))
        items.append({"item": item_name, "satisfied": bool(satisfied)})
        satisfied_count += int(satisfied)
    return min(10, 1 + satisfied_count), items


def _provided(value) -> bool:
    if value is None:
        return False
    if isinstance(value, (list, tuple, dict)):
        return len(value) > 0
    return bool(str(value).strip())


def _quality_from_report(report: QualityReport | None) -> dict:
    blocks: dict[str, dict] = {}
    for criterion in catalog.CRITERIA:
        blocks[criterion] = {"score": None, "verdict": "not evaluated",
                             "excluded": 0, "metrics": []}
    if report is None:
        return blocks
    scope = report.scope("global")
    if scope is None:
        return blocks
    for c in scope.criteria:
        blocks[c.criterion] = {
            "score": c.score, "verdict": c.verdict, "excluded": c.excluded,
            "metrics": [{key: m[key] for key in _CARD_METRIC_KEYS}
                        for m in c.metrics]}
    return blocks


def build_card(manifest: dict, report: QualityReport | None = None,
               report_digest: str | None = None) -> CardDocument:
    """Populate the full card from a manifest plus an evaluation report.

    Every schema field exists in the result; unprovided fields carry the
    explicit "not provided" marker. A digest pinned in the manifest must
    match the supplied report's digest.
    """
    validate_manifest(manifest)
    pinned = manifest.get("report_digest")
    if pinned is not None and report_digest is not None and pinned != report_digest:
        raise CardError("report changed since card built "
                        f"(expected digest {pinned[:12]}..., got "
                        f"{report_digest[:12]}...)", code="E231")

    fields: dict[str, dict[str, str]] = {}
    for section_key, _, section_fields in SECTIONS:
        if section_key == "quality":
            continue
        block = manifest.get(section_key) or {}
        rendered = {}
        for key, _label in section_fields:
            rendered[key] = (_as_text(block[key]) if _provided(block.get(key))
                             else NOT_PROVIDED)
        fields[section_key] = rendered

    params = (manifest.get("generation") or {}).get("generation_parameters")
    if _provided(params):
        method = fields["generation"]["generation_method"]
        prefix = "" if method == NOT_PROVIDED else method + " "
        fields["generation"]["generation_method"] = (
            f"{prefix}[parameters: {_as_text(params)}]")

    quality = _quality_from_report(report)
    score, items = documentation_clarity_score(manifest)
    thresholds = report.thresholds if report else DEFAULT_THRESHOLDS
    d = catalog.descriptor("documentation_clarity")
    normalized = normalize(make_result(d.name, score), d.static_bounds)
    quality["comprehension"] = {
        "score": normalized,
        "verdict": verdict(normalized, thresholds),
        "excluded": 0,
        "metrics": [{"name": d.name, "label": d.label, "value": score,
                     "normalized": normalized, "direction": d.direction}],
        "rubric": items,
    }

    declared = dict(report.declared_privacy) if report else {}
    return CardDocument(fields=fields, quality=quality,
                        clarity={"score": score, "items": items},
                        report_digest=report_digest,
                        declared_privacy=declared, notes=SCORECARD_NOTES)


def digest_of(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# renderers


def render(card: CardDocument, fmt: str) -> bytes:
    if fmt == "structured":
        return render_structured(card)
    if fmt == "md":
        return render_markdown(card).encode("utf-8")
    if fmt == "html":
        return render_html(card).encode("utf-8")
    raise CardError(f"unknown card format {fmt!r}")


def render_structured(card: CardDocument) -> bytes:
    return dumps_canonical(dataclasses.asdict(card)).encode("utf-8")


def card_from_json(payload: bytes) -> CardDocument:
    try:
        return CardDocument(**json.loads(payload))
    except (ValueError, TypeError) as exc:
        raise InputError(f"not a card document: {exc}") from None


def _criterion_lines(card: CardDocument, criterion: str) -> list[str]:
    block = card.quality[criterion]
    head = (f"score {block['score']:.2f} - verdict: {block['verdict']}"
            if block["score"] is not None else f"verdict: {block['verdict']}")
    lines = [head]
    for m in block["metrics"]:
        raw = m["value"]
        raw_text = ("undefined" if raw is None
                    else raw if isinstance(raw, str) else format(raw, ".6g"))
        norm_text = "-" if m["normalized"] is None else format(m["normalized"], ".2f")
        lines.append(f"{m['label']}: raw {raw_text}, normalized {norm_text}, "
                     f"{m['direction']}")
    if criterion == "comprehension" and "rubric" in block:
        satisfied = [i["item"] for i in block["rubric"] if i["satisfied"]]
        missing = [i["item"] for i in block["rubric"] if not i["satisfied"]]
        lines.append("rubric satisfied: " + (", ".join(satisfied) or "none"))
        lines.append("rubric missing: " + (", ".join(missing) or "none"))
    if criterion == "compliance" and card.declared_privacy:
        for key in sorted(card.declared_privacy):
            lines.append(f"declared {key}: {card.declared_privacy[key]}")
    return lines


def _sections(card: CardDocument):
    """Per section: its title, its (label, lines) rows, and the (text, code)
    notes under its table, None for a section without a notes block."""
    for section_key, title, section_fields in SECTIONS:
        if section_key != "quality":
            values = card.fields[section_key]
            yield title, [(label, [values[key]])
                          for key, label in section_fields], None
            continue
        notes = [(f"Note: {note}", None) for note in card.notes]
        if card.report_digest:
            notes.append(("Report digest: ", card.report_digest))
        yield title, [(label, _criterion_lines(card, key))
                      for key, label in section_fields], notes


def _md_escape(text: str) -> str:
    return text.replace("|", "\\|").replace("\n", " ")


def render_markdown(card: CardDocument) -> str:
    out = [f"# Synthetic Medical Data Card: "
           f"{card.fields['general']['name']}", ""]
    for title, rows, notes in _sections(card):
        out += [f"## {title}", "", "| Field | Value |", "| --- | --- |"]
        out += [f"| {label} | {_md_escape('; '.join(lines))} |"
                for label, lines in rows]
        if notes is not None:
            out.append("")
            out += [f"- {text}" + (f"`{code}`" if code else "")
                    for text, code in notes]
        out.append("")
    return "\n".join(out)


_HTML_STYLE = (
    "body{font-family:sans-serif;margin:2em;max-width:60em}"
    "table{border-collapse:collapse;width:100%;margin-bottom:1em}"
    "td,th{border:1px solid #999;padding:0.3em 0.6em;text-align:left;"
    "vertical-align:top}"
    "h2{border-bottom:2px solid #333;padding-bottom:0.2em}"
    ".note{font-size:0.9em;color:#444}"
)


def render_html(card: CardDocument) -> str:
    esc = html_lib.escape
    name = esc(card.fields["general"]["name"])
    out = ["<!DOCTYPE html>", "<html lang=\"en\">", "<head>",
           "<meta charset=\"utf-8\">",
           f"<title>Synthetic Medical Data Card: {name}</title>",
           f"<style>{_HTML_STYLE}</style>", "</head>", "<body>",
           f"<h1>Synthetic Medical Data Card: {name}</h1>"]
    for title, rows, notes in _sections(card):
        out += ["<section>", f"<h2>{esc(title)}</h2>", "<table>",
                "<tr><th>Field</th><th>Value</th></tr>"]
        out += [f"<tr><td>{esc(label)}</td>"
                f"<td>{'<br>'.join(esc(line) for line in lines)}</td></tr>"
                for label, lines in rows]
        out.append("</table>")
        out += [f"<p class=\"note\">{esc(text)}"
                + (f"<code>{esc(code)}</code>" if code else "") + "</p>"
                for text, code in notes or ()]
        out.append("</section>")
    out.append("</body>")
    out.append("</html>")
    return "\n".join(out) + "\n"
