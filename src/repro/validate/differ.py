"""Divergence semantics: what "functionally equivalent" means here.

Two observations are equivalent when every *compared field* matches
exactly.  The compared fields are the externally visible contract of a NIC
driver: frames on the wire, frames delivered to the OS, operation status
codes in order, device state and statistics, OID answers, interrupt counts
and logged errors.  Deliberately **not** compared:

* ``side`` / OS identity (that is the experiment variable);
* OS API call *counts* -- the template does not re-run ``DriverEntry``
  and each OS adapts calls differently, so call totals differ by
  construction while behavior does not;
* wall-clock anything -- performance is the perf model's business
  (Figures 2-7), not the equivalence matrix's.

A mismatch produces a :class:`Divergence` naming the field and the first
point of disagreement; comparison never stops at the first divergent
field, so one scenario can report several.

On top of the field comparison sits the shared *verdict* layer
(:func:`classify_observations`): every differential consumer -- the
validation matrix, the scenario fuzzer, the replay corpus -- classifies a
(baseline, candidate) observation pair the same way:

* ``match`` -- no divergence on any compared field;
* ``unsupported`` -- the candidate failed with a ``TemplateError`` (an
  OS that cannot host the driver; an *explained* incompatibility);
* ``divergent`` -- any other disagreement (the real-bug verdict).
"""

from dataclasses import asdict, dataclass, field

#: Fields compared for equivalence, in report order.
COMPARED_FIELDS = (
    "ok", "error", "statuses", "wire_frames", "delivered", "link_drops",
    "device_stats", "device_state", "oids", "irq_count", "error_log",
)


@dataclass(frozen=True)
class Divergence:
    """One field on which baseline and candidate disagree."""

    field: str
    detail: str

    def to_dict(self):
        return asdict(self)


def _frame_list_detail(name, baseline, candidate):
    if len(baseline) != len(candidate):
        return "%d %s vs %d" % (len(baseline), name, len(candidate))
    for index, (b, c) in enumerate(zip(baseline, candidate)):
        if b != c:
            return "%s[%d]: %s... vs %s..." % (name, index, str(b)[:24],
                                               str(c)[:24])
    return "%s differ" % name


def _dict_detail(name, baseline, candidate):
    keys = sorted(set(baseline) | set(candidate))
    for key in keys:
        b, c = baseline.get(key), candidate.get(key)
        if b != c:
            return "%s[%s]: %r vs %r" % (name, key, b, c)
    return "%s differ" % name


def compare_observations(baseline, candidate, ignore=()):
    """All divergences between two observations of one scenario."""
    divergences = []
    for field_name in COMPARED_FIELDS:
        if field_name in ignore:
            continue
        b = getattr(baseline, field_name)
        c = getattr(candidate, field_name)
        if b == c:
            continue
        if field_name in ("wire_frames", "delivered", "statuses",
                          "error_log"):
            detail = _frame_list_detail(field_name, b, c)
        elif field_name in ("device_stats", "device_state", "oids"):
            detail = _dict_detail(field_name, b, c)
        else:
            detail = "%r vs %r" % (b, c)
        divergences.append(Divergence(field=field_name, detail=detail))
    return divergences


@dataclass
class DifferentialVerdict:
    """One (baseline, candidate) pair, classified."""

    verdict: str              # 'match' | 'unsupported' | 'divergent'
    divergences: list = field(default_factory=list)
    candidate_error: str = ""

    @property
    def matched(self):
        return self.verdict == "match"


def classify_observations(baseline, candidate, ignore=()):
    """Compare and classify one observation pair.

    The single verdict rule every differential consumer shares: exact
    match, explained incompatibility (``TemplateError`` on the candidate
    side), or genuine behavioral divergence.
    """
    divergences = compare_observations(baseline, candidate, ignore=ignore)
    if not divergences:
        verdict = "match"
    elif not candidate.ok and candidate.error == "TemplateError":
        verdict = "unsupported"
    else:
        verdict = "divergent"
    return DifferentialVerdict(verdict=verdict, divergences=divergences,
                               candidate_error=candidate.error)


def is_unexplained(verdict, expected):
    """True when a verdict is a finding the expectation cannot account
    for: a behavioral divergence anywhere, or an unsupported result where
    equivalence (``expected == "equivalent"``) was expected."""
    return verdict == "divergent" or (verdict == "unsupported"
                                      and expected == "equivalent")
