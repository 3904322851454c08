"""Suite-wide test configuration and the cold-start oracle.

``HYPOTHESIS_PROFILE=ci`` selects a derandomised hypothesis profile, so a
property failure in CI reproduces from the log alone (same examples on
every run, the failing one printed as a ``@reproduce_failure`` blob).
"""

import os
from contextlib import contextmanager

from hypothesis import settings

from repro.services.fcs import FairshareCalculationService
from repro.services.ums import UsageMonitoringService

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

#: refresh interval of a cold service: its periodic task never fires twice
NEVER = 1e18


@contextmanager
def cold_start(ums, fcs=None):
    """Services constructed *now* over the same inputs — the oracle.

    The incremental UMS and FCS paths have no in-tree "reference" twin;
    what they must equal is what a fresh instance computes at the same
    ``engine.now``: a new UMS primes through the full merge-and-decay
    pass, a new FCS through a full refold, a from-scratch policy compile
    and a full kernel pass, sharing none of the long-lived services'
    cursors, bases, scale, journal anchor or cached result.  Yields
    ``(cold_ums, cold_fcs)`` (``cold_fcs`` is None without ``fcs``) and
    stops both on exit.  Compare right after the long-lived refresh:
    served state is as of ``computed_at``, the cold one as of now.
    """
    assert ums.computed_at == ums.engine.now
    cold_ums = UsageMonitoringService(
        ums.site, ums.engine, sources=ums.sources, decay=ums.decay,
        refresh_interval=NEVER, consider_remote=ums.consider_remote)
    cold_fcs = None
    try:
        assert cold_ums.full_refreshes == cold_ums.refreshes == 1
        if fcs is not None:
            assert fcs.computed_at == fcs.engine.now
            cold_fcs = FairshareCalculationService(
                fcs.site, fcs.engine, fcs.pds, cold_ums,
                parameters=fcs.parameters, projection=fcs.projection,
                refresh_interval=NEVER,
                unknown_user_value=fcs.unknown_user_value,
                identity_map=fcs.identity_map)
        yield cold_ums, cold_fcs
    finally:
        if cold_fcs is not None:
            cold_fcs.stop()
        cold_ums.stop()
