"""Per-subnet non-preferred access shares (Section VII-B, Figure 12).

"Each set of bars corresponds to an internal subnet at US-Campus.  The bars
... show the fraction of accesses to non-preferred data centers, and the
fraction of all accesses, which may be attributed to the subnet.  Net-3
shows a clear bias: though this subnet only accounts for around 4% of the
total video flows ... it accounts for almost 50% of all the flows served by
non-preferred data centers."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.nonpreferred import preference_masks, video_flow_preference
from repro.core.preferred import PreferredDcReport
from repro.geoloc.clustering import ServerMap
from repro.trace.columnar import FlowTable, active_table
from repro.trace.records import Dataset, FlowRecord


@dataclass(frozen=True)
class SubnetShare:
    """One Figure 12 bar pair.

    Attributes:
        subnet_name: Internal subnet label.
        all_share: The subnet's share of all video flows.
        nonpreferred_share: Its share of the non-preferred video flows.
    """

    subnet_name: str
    all_share: float
    nonpreferred_share: float

    @property
    def bias(self) -> float:
        """How over-represented the subnet is among non-preferred flows."""
        if self.all_share == 0:
            return 0.0
        return self.nonpreferred_share / self.all_share


def subnet_shares(
    dataset: Dataset,
    report: PreferredDcReport,
    server_map: ServerMap,
    records: Optional[Sequence[FlowRecord]] = None,
) -> List[SubnetShare]:
    """Compute Figure 12's bars for a dataset.

    Args:
        dataset: The dataset (its subnet plan attributes client addresses).
        report: Preferred-data-center report.
        server_map: CBG clustering.
        records: Flow records to analyse (defaults to the dataset's own;
            pass the focus-filtered list to match the paper).

    Returns:
        One :class:`SubnetShare` per subnet, in the vantage point's order.

    Raises:
        ValueError: With no classifiable video flows.
    """
    if records is None:
        records = dataset.records
    table = active_table(records)
    if table is not None:
        all_counts, nonpref_counts = _subnet_counts_numpy(dataset, table, report, server_map)
    else:
        split = video_flow_preference(records, report, server_map)
        if not split[True] and not split[False]:
            raise ValueError("no classifiable video flows")
        all_counts = _count_by_subnet(dataset, split[True] + split[False])
        nonpref_counts = _count_by_subnet(dataset, split[False])
    total_all = max(1, sum(all_counts.values()))
    total_nonpref = max(1, sum(nonpref_counts.values()))

    shares: List[SubnetShare] = []
    for subnet in dataset.vantage.subnets:
        shares.append(
            SubnetShare(
                subnet_name=subnet.name,
                all_share=all_counts.get(subnet.name, 0) / total_all,
                nonpreferred_share=nonpref_counts.get(subnet.name, 0) / total_nonpref,
            )
        )
    return shares


def _count_by_subnet(dataset: Dataset, flows: Sequence[FlowRecord]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for flow in flows:
        subnet = dataset.vantage.subnet_of(flow.src_ip)
        if subnet is None:
            continue
        counts[subnet.name] = counts.get(subnet.name, 0) + 1
    return counts


def _subnet_counts_numpy(
    dataset: Dataset, table: FlowTable, report: PreferredDcReport, server_map: ServerMap
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Per-subnet video-flow counts (all, non-preferred) from the columns.

    The subnets' address ranges cut the address line into elementary
    intervals; each interval belongs to the first declared subnet that
    covers it (``subnet_of``'s rule, nested prefixes included), and one
    ``searchsorted`` over the sorted bounds places every client.
    """
    import numpy as np

    is_video, verdict = preference_masks(table, report, server_map)
    classified = is_video & (verdict != -1)
    if not classified.any():
        raise ValueError("no classifiable video flows")
    subnets = dataset.vantage.subnets
    bounds = sorted({b for s in subnets for b in (s.network.first, s.network.last + 1)})
    owner = []
    for lo in bounds:
        hit = next((k for k, s in enumerate(subnets) if s.contains_ip(lo)), -1)
        owner.append(hit)
    # Addresses below every bound land in slot -1: the appended "no subnet".
    owner = np.asarray(owner + [-1], dtype=np.int64)
    # Membership tests only the low 32 bits (``ip & mask == network``).
    src = table.columns().src_ip & 0xFFFFFFFF
    slot = np.searchsorted(np.asarray(bounds, dtype=np.int64), src, side="right") - 1
    subnet_code = owner[slot]

    def count(mask) -> Dict[str, int]:
        codes = subnet_code[mask]
        counts: Dict[str, int] = {}
        per = np.bincount(codes[codes >= 0], minlength=len(subnets)).tolist()
        for subnet, n in zip(subnets, per):
            counts[subnet.name] = counts.get(subnet.name, 0) + n
        return counts

    return count(classified), count(is_video & (verdict == 0))


def most_biased_subnet(shares: Sequence[SubnetShare]) -> SubnetShare:
    """The subnet most over-represented among non-preferred flows.

    Raises:
        ValueError: With no subnets.
    """
    if not shares:
        raise ValueError("no subnets")
    return max(shares, key=lambda s: s.bias)
