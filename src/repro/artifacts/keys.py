"""Cache-key derivation: canonical serialisation and stage digests.

A cache key must change exactly when a stage's output could change.  The
ingredients are therefore (1) the *stage name*, (2) a *canonical* form of
every input that reaches the stage — scenario/config dicts, master seeds,
scales, windows — and (3) a *code-version tag* that is bumped whenever the
simulator's or analysis code's output-affecting behaviour changes.

Canonicalisation is strict by design: only values whose equality implies
output equality are accepted (plain scalars, sequences, mappings, enums,
dataclasses, and objects exposing ``cache_fingerprint()``).  Anything else
raises :class:`CanonicalizationError` — an unhashable input must never be
silently folded into a key, because two different worlds would then share
one artifact.

**The fingerprint rule for worlds.**  A
:class:`~repro.sim.scenarios.ScenarioWorld` participates in caching iff
``policy_kind`` is set: ``build_config()`` then returns the canonical
build inputs ``(spec, scale, seed, duration_s, policy_kind)`` that key
its stages.  ``policy_kind=None`` is the opt-out for worlds that are
*not* a pure function of those inputs — shared-world facades (their
results depend on every co-resident vantage point) and hand-assembled
test worlds.  The opt-out is reserved for exactly those construction
paths: worlds built by the spec layer
(:func:`repro.spec.model.apply_spec`, grid points, registry scenarios)
always come out of :func:`~repro.sim.scenarios.build_world` with a
policy kind and therefore always carry a full fingerprint — a
declaratively-described world can never silently fall out of the cache.
Declarative values (:class:`~repro.spec.info.ScenarioInfo`,
:class:`~repro.spec.model.Spec`, grid specs/points) plug into keys via
their ``cache_fingerprint()`` hooks, so equal descriptions — however
assembled, whatever order their deltas were written in — produce equal
keys.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from typing import Any, Optional

#: Bump whenever a change to simulator or analysis code alters any stage's
#: output for unchanged inputs, or the pickled layout of a cached object;
#: every existing artifact then misses.
CODE_VERSION = "4"

#: Environment override for the code-version tag (tests use it to force
#: invalidation without editing source).
ENV_CODE_VERSION = "REPRO_CODE_VERSION"


class CanonicalizationError(TypeError):
    """A value cannot be canonicalised into a cache key."""


def code_version() -> str:
    """The active code-version tag (``REPRO_CODE_VERSION`` wins)."""
    return os.environ.get(ENV_CODE_VERSION, "").strip() or CODE_VERSION


def canonicalize(value: Any) -> Any:
    """Reduce a value to a JSON-serialisable canonical form.

    The form is stable across processes and Python versions: mappings are
    rendered as key-sorted pair lists, sets are sorted, dataclasses carry
    their type name, floats keep their shortest round-trip repr (via
    ``json``), and enums serialise by class and member name.

    Args:
        value: The value to canonicalise.

    Returns:
        A composition of dicts, lists, strings, numbers, bools and None.

    Raises:
        CanonicalizationError: For values with no canonical form.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "member": value.name}
    # An explicit fingerprint beats the structural dataclass form: a type
    # defines one exactly when its identity differs from its fields (e.g.
    # order-sensitive parts, derived internal state).
    fingerprint = getattr(value, "cache_fingerprint", None)
    if callable(fingerprint):
        return {"__fingerprint__": type(value).__name__,
                "value": canonicalize(fingerprint())}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: canonicalize(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__name__, "fields": fields}
    if isinstance(value, dict):
        pairs = [[canonicalize(k), canonicalize(v)] for k, v in value.items()]
        pairs.sort(key=lambda pair: _dumps(pair[0]))
        return {"__map__": pairs}
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        items = [canonicalize(item) for item in value]
        items.sort(key=_dumps)
        return {"__set__": items}
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    raise CanonicalizationError(
        f"cannot canonicalise {type(value).__name__!r} into a cache key; "
        "give it a cache_fingerprint() method or pass primitive inputs"
    )


def _dumps(canonical: Any) -> str:
    """Deterministic JSON text of an already-canonical value."""
    return json.dumps(canonical, sort_keys=True, separators=(",", ":"))


def stage_key(stage: str, config: Any, version: Optional[str] = None) -> str:
    """The sha256 cache key of one stage invocation.

    Args:
        stage: Stage name (``"sim/run_week"``).
        config: Everything the stage's output depends on.  Canonicalised
            here — pass raw values (dataclasses, dicts, seeds), never
            pre-canonicalised forms, or keys will not line up.
        version: Code-version tag; default :func:`code_version`.

    Returns:
        A 64-character hex digest.

    Raises:
        CanonicalizationError: If the config cannot be canonicalised.
    """
    document = {
        "stage": stage,
        "code_version": version if version is not None else code_version(),
        "config": canonicalize(config),
    }
    # An *active* fault plan changes what stages produce, so it must
    # change their keys: faulted artifacts live in their own (seed, plan)
    # namespace and can never shadow — or be shadowed by — clean ones.
    # Inert plans (all rates zero) leave keys untouched, which is what
    # makes a zero-fault run byte-identical to a plain run.
    from repro.faults.plan import active_plan

    plan = active_plan()
    if plan is not None:
        document["faults"] = canonicalize(plan)
    return hashlib.sha256(_dumps(document).encode("utf-8")).hexdigest()
