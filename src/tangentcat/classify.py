"""Morphism classification: seven bundle-theoretic predicates with evidence.

Each predicate verdict is holds / fails / undetermined, and every decided
verdict carries machine-checkable evidence (kernel generators, preimages,
witness elements, retraction matrices).  A report bundles the verdicts
with coherence checks of the implications that are theorems:

    immersion  <=>  unramified          (in instances with negation)
    split submersion  =>  submersion
    etale  <=>  immersion and split submersion
    monic etale  <=>  monic and split submersion
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import InconsistentClassification
from .groebner import ring_map_kernel
from .kahler import (
    classify_cotangent,
    cotangent_map,
    jacobian_split_verdict,
    relative_kahler,
    zero_module_evidence,
)
from .presentations import (
    absolute,
    codiagonal,
    is_surjective,
    linear_section_exists,
    pushout,
)

PREDICATES = (
    "T_monic",
    "T_immersion",
    "T_unramified",
    "T_submersion",
    "split_T_submersion",
    "T_etale",
    "monic_T_etale",
)

HOLDS = "holds"
FAILS = "fails"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class PredicateStatus:
    """One predicate verdict with its evidence payload."""

    status: str
    evidence: dict = field(default_factory=dict)
    reason: str = None

    @property
    def decided(self):
        return self.status != UNDETERMINED

    @property
    def value(self):
        return {HOLDS: True, FAILS: False}.get(self.status)

    def to_json(self):
        out = {"status": self.status, "evidence": self.evidence}
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def holds(evidence=None):
    return PredicateStatus(HOLDS, evidence or {})


def fails(evidence=None):
    return PredicateStatus(FAILS, evidence or {})


def undetermined(reason, evidence=None):
    return PredicateStatus(UNDETERMINED, evidence or {}, reason)


def from_bool(value, evidence, reason=None):
    if value is True:
        return holds(evidence)
    if value is False:
        return fails(evidence)
    return undetermined(reason or "not decided", evidence)


def _kernel_status(kernel, key):
    """Holds with ``{key: "zero"}`` on an empty kernel; else fails with its
    generators under ``key + "_generators"``."""
    if kernel:
        return fails({f"{key}_generators": [str(k) for k in kernel]})
    return holds({key: "zero"})


def and3(*statuses):
    """Three-valued conjunction of predicate statuses."""
    if any(s.status == FAILS for s in statuses):
        culprit = next(s for s in statuses if s.status == FAILS)
        return fails({"because": culprit.evidence})
    if all(s.status == HOLDS for s in statuses):
        return holds({"conjuncts": len(statuses)})
    reason = "; ".join(
        s.reason or "undetermined" for s in statuses if s.status == UNDETERMINED
    )
    return undetermined(reason)


@dataclass
class ClassificationReport:
    """Verdicts for one morphism in one instance, with coherence results."""

    instance: str
    morphism: str
    base: str
    predicates: dict
    coherence: list = field(default_factory=list)
    annotations: dict = field(default_factory=dict)
    timings_ms: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "schema_version": "1",
            "instance": self.instance,
            "morphism": self.morphism,
            "base": self.base,
            "predicates": {name: self.predicates[name].to_json() for name in PREDICATES},
            "coherence": self.coherence,
            "annotations": self.annotations,
            "timings_ms": self.timings_ms,
        }


COHERENCE_LAWS = (
    ("immersion_implies_unramified", ("T_immersion", "T_unramified"), "implies"),
    ("unramified_implies_immersion", ("T_unramified", "T_immersion"), "implies_with_negation"),
    ("split_implies_submersion", ("split_T_submersion", "T_submersion"), "implies"),
    (
        "etale_iff_immersion_and_split",
        ("T_etale", "T_immersion", "split_T_submersion"),
        "iff_conjunction",
    ),
    (
        "monic_etale_iff_monic_and_split",
        ("monic_T_etale", "T_monic", "split_T_submersion"),
        "iff_conjunction",
    ),
)


def coherence_check(predicates, has_negation=True):
    """Evaluate the theorem-backed implications between computed verdicts.

    Undetermined inputs skip a law; a decided violation raises
    InconsistentClassification.
    """
    results = []
    for name, keys, mode in COHERENCE_LAWS:
        if mode == "implies_with_negation" and not has_negation:
            results.append(
                {"law": name, "status": "skipped", "note": "no negation in this instance"}
            )
            continue
        statuses = [predicates[k] for k in keys]
        if any(not s.decided for s in statuses):
            results.append({"law": name, "status": "skipped", "note": "undetermined input"})
            continue
        values = [s.value for s in statuses]
        if mode in ("implies", "implies_with_negation"):
            ok = (not values[0]) or values[1]
        else:  # iff_conjunction
            ok = values[0] == all(values[1:])
        if not ok:
            raise InconsistentClassification(
                f"coherence law {name} is violated by the computed verdicts",
                law=name,
            )
        results.append({"law": name, "status": "checked"})
    return results


def build_report(instance, name, base, predicates, t0, annotations=None, has_negation=True):
    """Assemble a report: derive monic T-etale unless the caller set it,
    check the coherence laws and stamp the time since ``t0``."""
    if "monic_T_etale" not in predicates:
        predicates["monic_T_etale"] = and3(predicates["T_monic"], predicates["split_T_submersion"])
    coherence = coherence_check(predicates, has_negation)
    total = round((time.perf_counter() - t0) * 1000.0, 3)
    return ClassificationReport(instance, name, base, predicates, coherence,
                                annotations or {}, {"total": total})


# ---------------------------------------------------------------------------
# commutative-algebra instance: the bundle map lands in A x B

def classify_calg(f, name="f", base_name=None):
    """Classify an algebra morphism through its dual-numbers bundle map.

    The bundle map sends a + a'e to (a, f(a')), so injectivity of f decides
    the monic-flavoured predicates, surjectivity decides the submersion,
    and an element a with f(a) = 1 and Ker(f)·a = 0 decides the splitting.
    """
    t0 = time.perf_counter()
    inj_status = _kernel_status(ring_map_kernel(f), "kernel")

    surjective, surj_data = is_surjective(f)
    if surjective:
        surj_ev = {"preimages": {k: str(v) for k, v in surj_data.items()}}
    else:
        surj_ev = {"missing_preimages": list(surj_data)}
    surj_status = from_bool(surjective, surj_ev)

    if surjective:
        section = linear_section_exists(f)
        if section.holds:
            split_status = holds(
                {"witness": str(section.witness), "route": section.route,
                 "note": section.reason}
            )
        else:
            split_status = fails({"route": section.route, "note": section.reason})
    else:
        split_status = fails(
            {"note": "the bundle map of a non-surjective morphism has no section",
             "missing_preimages": list(surj_data)}
        )

    predicates = {
        "T_monic": inj_status,
        "T_immersion": inj_status,
        "T_unramified": inj_status,
        "T_submersion": surj_status,
        "split_T_submersion": split_status,
    }
    predicates["T_etale"] = and3(inj_status, surj_status)
    return build_report("calg", name, base_name, predicates, t0)


# ---------------------------------------------------------------------------
# affine instance: differentials of the opposite morphism

def classify_affine(f, name="f", base_name=None):
    """Classify the affine-side morphism opposite to an algebra map f: A -> B.

    Monic means f is an epimorphism of algebras (self-pushout codiagonal has
    zero kernel); the remaining predicates read off the comparison map of
    differentials: cokernel for immersions, kernel for submersions, module
    retractions for the splitting, and both together for the isomorphism.
    """
    t0 = time.perf_counter()
    f = absolute(f)
    po = pushout(f, f)
    mu = codiagonal(po, f)
    monic_status = _kernel_status(ring_map_kernel(mu), "codiagonal_kernel")

    seq = cotangent_map(f)
    verdicts = classify_cotangent(seq)
    immersion_status = from_bool(*verdicts.cokernel_zero)

    rel = relative_kahler(f)
    rel_zero, rel_ev = zero_module_evidence(rel)
    unramified_status = from_bool(rel_zero, rel_ev)

    submersion_status = from_bool(*verdicts.monic)
    split_val, split_ev = verdicts.split_monic
    split_status = from_bool(split_val, split_ev, reason=split_ev.get("reason"))
    etale_status = from_bool(*verdicts.iso)

    predicates = {
        "T_monic": monic_status,
        "T_immersion": immersion_status,
        "T_unramified": unramified_status,
        "T_submersion": submersion_status,
        "split_T_submersion": split_status,
        "T_etale": etale_status,
    }

    jac, jac_ev = jacobian_split_verdict(f.target)
    verdict = {True: "passes", False: "fails", None: "undetermined"}[jac]
    annotations = {"jacobian_criterion": {"verdict": verdict, **jac_ev}}
    if etale_status.status == HOLDS and jac is False:
        annotations["note"] = (
            "tangent-etale but not formally etale: the Jacobian splitting "
            "criterion fails for the target presentation"
        )
    return build_report("affine", name, base_name, predicates, t0, annotations)
