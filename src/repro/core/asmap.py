"""AS-level breakdown of server traffic (Section IV, Table II).

"We employ the whois tool to map the server IP address to the corresponding
AS" — here the whois tool is the world's :class:`~repro.net.asn.AsRegistry`.
The four Table II groups: the Google AS (15169), the YouTube-EU AS (43515),
servers inside the *same AS* the dataset was collected in (the EU2 in-ISP
data center), and everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.net.asn import AsRegistry, GOOGLE_ASN, YOUTUBE_EU_ASN
from repro.reporting.tables import TextTable, format_fraction
from repro.trace.columnar import group_sum_int64, use_numpy
from repro.trace.records import Dataset

#: Table II column groups, in the paper's order.
AS_GROUPS = ("google", "youtube_eu", "same_as", "others")


@dataclass(frozen=True)
class AsBreakdown:
    """One Table II row: per-group server and byte shares.

    Attributes:
        name: Dataset name.
        server_fractions: Group → fraction of distinct servers.
        byte_fractions: Group → fraction of bytes.
    """

    name: str
    server_fractions: Dict[str, float]
    byte_fractions: Dict[str, float]

    def share(self, group: str) -> Tuple[float, float]:
        """(server fraction, byte fraction) for a group.

        Raises:
            KeyError: For an unknown group name.
        """
        if group not in AS_GROUPS:
            raise KeyError(f"unknown AS group: {group!r}")
        return self.server_fractions[group], self.byte_fractions[group]


def _group_of(asn: int, vantage_asn: int) -> str:
    if asn == vantage_asn:
        # The paper's "Same AS" column takes precedence: the EU2 data
        # center lives inside the host ISP's AS, not in Google's.
        return "same_as"
    if asn == GOOGLE_ASN:
        return "google"
    if asn == YOUTUBE_EU_ASN:
        return "youtube_eu"
    return "others"


def breakdown_by_as(dataset: Dataset, registry: AsRegistry) -> AsBreakdown:
    """Compute the Table II row for one dataset.

    Raises:
        ValueError: On an empty dataset.
    """
    if len(dataset) == 0:
        raise ValueError(f"dataset {dataset.name} is empty")
    vantage_asn = dataset.vantage.asn
    server_groups: Dict[int, str] = {}
    for ip in dataset.server_ips:
        asn = registry.asn_of(ip)
        server_groups[ip] = _group_of(asn, vantage_asn) if asn is not None else "others"

    server_counts = {g: 0 for g in AS_GROUPS}
    for group in server_groups.values():
        server_counts[group] += 1
    byte_counts = {g: 0 for g in AS_GROUPS}
    if use_numpy():
        import numpy as np

        # server_ips is the table's sorted unique dst array, so the dict's
        # order is the dst-code order.
        _, dst_code = dataset.records.dst_codes()
        group_code = np.asarray(
            [AS_GROUPS.index(g) for g in server_groups.values()], dtype=np.int64
        )
        sums = group_sum_int64(
            group_code[dst_code], dataset.records.columns().num_bytes, len(AS_GROUPS)
        )
        byte_counts = dict(zip(AS_GROUPS, sums.tolist()))
    else:
        for record in dataset:
            byte_counts[server_groups[record.dst_ip]] += record.num_bytes

    num_servers = len(server_groups)
    total_bytes = max(1, sum(byte_counts.values()))
    return AsBreakdown(
        name=dataset.name,
        server_fractions={g: server_counts[g] / num_servers for g in AS_GROUPS},
        byte_fractions={g: byte_counts[g] / total_bytes for g in AS_GROUPS},
    )


def google_focus_ips(dataset: Dataset, registry: AsRegistry) -> List[int]:
    """The server addresses the rest of the analysis focuses on.

    Section IV: "we only focus on accesses to video servers located in the
    Google AS.  For the EU2 dataset, we include accesses to the data center
    located inside the corresponding ISP."
    """
    vantage_asn = dataset.vantage.asn
    keep: List[int] = []
    for ip in dataset.server_ips:
        asn = registry.asn_of(ip)
        if asn == GOOGLE_ASN or (asn is not None and asn == vantage_asn):
            keep.append(ip)
    return keep


def render_table2(breakdowns: Iterable[AsBreakdown]) -> str:
    """Render Table II."""
    table = TextTable(
        [
            "Dataset",
            "Google srv%", "Google byte%",
            "YT-EU srv%", "YT-EU byte%",
            "SameAS srv%", "SameAS byte%",
            "Other srv%", "Other byte%",
        ],
        title="TABLE II — PERCENTAGE OF SERVERS AND BYTES RECEIVED PER AS",
    )
    for b in breakdowns:
        cells: List[str] = [b.name]
        for group in AS_GROUPS:
            srv, byt = b.share(group)
            cells.append(format_fraction(srv))
            cells.append(format_fraction(byt, 2))
        table.add_row(*cells)
    return table.render()
