"""``repro.campaign``: journaled, resumable parameter-space sweeps.

The paper's evaluation is one fixed 30x7 grid plus a hand-picked
sensitivity study (Section VI); this package generalizes both into a
declarative *campaign*: a versioned TOML/JSON sweep spec expands into
content-addressed cells over the whole design space (CBWS geometry,
cache sizes and shapes, core and prefetch-path parameters), executes as
a crash-safe journaled run through the :mod:`repro.exec` grid engine (or
a running ``repro serve`` endpoint), adaptively refines axis intervals
where the competitor ranking flips, and emits a schema-versioned
``campaign.json`` plus a static HTML sensitivity report.

Module map:

``spec``     the sweep-spec language (axes, combinators, constraints)
``cells``    campaign cells: parameter application, one SimNode per cell
``planner``  spec -> unique content-addressed cells, cache dedup
``refine``   winner-flip / gradient interval subdivision
``runner``   journaled wave execution, resume, grid + serve backends
``report``   campaign.json + campaign.html
``bench``    planner/journal overhead benchmark (BENCH_campaign.json)
"""

from repro.campaign.cells import CampaignCell
from repro.campaign.planner import CampaignPlan, plan_campaign
from repro.campaign.runner import CampaignOutcome, run_campaign
from repro.campaign.spec import Axis, CampaignSpec, load_spec, parse_spec

__all__ = [
    "Axis",
    "CampaignCell",
    "CampaignOutcome",
    "CampaignPlan",
    "CampaignSpec",
    "load_spec",
    "parse_spec",
    "plan_campaign",
    "run_campaign",
]
