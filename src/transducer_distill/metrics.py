"""Word-error-rate via Levenshtein alignment, with pooled corpus aggregation."""

from dataclasses import dataclass, field

from .data import write_json
# beam_search is not called here; perfbench/spans.py times metrics.beam_search
from .decode import beam_search, greedy_decode  # noqa: F401


class MetricsError(ValueError):
    pass


@dataclass
class WerReport:
    substitutions: int = 0
    deletions: int = 0
    insertions: int = 0
    reference_length: int = 0

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self) -> float:
        return self.errors / max(1, self.reference_length)

    def __add__(self, other):
        return WerReport(
            substitutions=self.substitutions + other.substitutions,
            deletions=self.deletions + other.deletions,
            insertions=self.insertions + other.insertions,
            reference_length=self.reference_length + other.reference_length,
        )


def edit_distance(ref, hyp) -> WerReport:
    """Minimal substitutions + deletions + insertions turning ``ref`` into
    ``hyp``, preferring substitutions over insert+delete pairs on ties."""
    ref = list(ref)
    hyp = list(hyp)
    n, m = len(ref), len(hyp)

    # cost[i][j]: distance between ref[:i] and hyp[:j]
    cost = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        cost[i][0] = i
    for j in range(1, m + 1):
        cost[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = cost[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1])
            delete = cost[i - 1][j] + 1
            insert = cost[i][j - 1] + 1
            cost[i][j] = min(sub, delete, insert)

    report = WerReport(reference_length=n)
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and cost[i][j] == cost[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            if ref[i - 1] != hyp[j - 1]:
                report.substitutions += 1
            i, j = i - 1, j - 1
        elif i > 0 and cost[i][j] == cost[i - 1][j] + 1:
            report.deletions += 1
            i -= 1
        else:
            report.insertions += 1
            j -= 1
    return report


@dataclass
class EvalReport:
    """Corpus-level pooled WER with the per-utterance breakdown retained."""

    total: WerReport
    per_utterance: dict = field(default_factory=dict)

    @property
    def wer(self) -> float:
        return self.total.wer


def evaluate(model, corpus, max_symbols_per_frame: int) -> EvalReport:
    """Greedy-decode every utterance and pool errors over the whole corpus.

    Corpus WER is total errors / total reference labels, not the mean of
    per-utterance rates.  References come through the corpus evaluation
    interface, which also reaches the hidden truth of unsupervised splits.
    """
    if not corpus.utterances:
        raise MetricsError(f"cannot evaluate empty corpus {corpus.split!r}")
    refs = corpus.references()
    missing = [utt.utt_id for utt in corpus.utterances if utt.utt_id not in refs]
    if missing:
        raise MetricsError(f"no reference labels for utterance {missing[0]!r}")
    hyps = greedy_decode(model, [utt.frames for utt in corpus.utterances], max_symbols_per_frame)
    total = WerReport()
    per_utt = {}
    for utt, (labels, _) in zip(corpus.utterances, hyps):
        rep = edit_distance(refs[utt.utt_id], labels)
        per_utt[utt.utt_id] = rep
        total = total + rep
    return EvalReport(total=total, per_utterance=per_utt)


def macro_average(reports) -> float:
    """Mean of per-set WERs, the multi-test-set reporting convention."""
    reports = list(reports)
    if not reports:
        raise MetricsError("macro_average needs at least one report")
    return sum(r.wer for r in reports) / len(reports)


def _counts(rep: WerReport) -> dict:
    return {"substitutions": rep.substitutions, "deletions": rep.deletions,
            "insertions": rep.insertions, "reference_length": rep.reference_length}


def write_report(path, sets: dict, metadata: dict | None = None) -> None:
    """Report file: per-set WER and error counts, each utterance's counts,
    plus experiment metadata."""
    payload = {
        "schema_version": 1,
        "sets": {
            name: {
                "wer": rep.wer,
                **_counts(rep.total),
                "per_utterance": {u: _counts(r) for u, r in rep.per_utterance.items()},
            }
            for name, rep in sets.items()
        },
        "macro_average": macro_average(sets.values()) if sets else None,
        "metadata": metadata or {},
    }
    write_json(path, payload)
