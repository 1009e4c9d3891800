#!/usr/bin/env python3
"""Network monitoring — the paper's flagship application domain.

Three standing queries over one packet-header stream, wired with the
*separate baskets* strategy (paper §2.5): the receptor replicates every
packet into one private basket per query, so each query consumes its own
copy independently.

1. an intrusion alert on a suspicious port (predicate window — only the
   matching packets are consumed by this query's basket expression);
2. per-destination traffic volume over sliding count windows
   (incremental basic-window aggregation);
3. a stream-table join against a blocklist of hosts.

The packet stream is replayed through the receptor in the textual wire
format, exactly as a network tap would deliver it.

Run:  python examples/network_monitoring.py
"""

from repro import DataCell, LogicalClock
from repro.adapters.channels import format_tuple
from repro.adapters.generators import network_packets

PACKET_SCHEMA = "(src varchar(15), dst varchar(15), port int, size int)"


def main() -> None:
    cell = DataCell(clock=LogicalClock())
    # one private basket per standing query (separate-baskets strategy)
    for name in ("pkts_ids", "pkts_vol", "pkts_blk"):
        cell.execute(f"create basket {name} {PACKET_SCHEMA}")
    cell.execute("create table blocklist (host varchar(15))")
    cell.execute("insert into blocklist values ('10.0.0.7'), ('10.0.0.13')")

    # --- query 1: suspicious-port alert (predicate window) -----------
    intrusion = cell.submit_continuous(
        "select p.src, p.dst, p.size "
        "from [select * from pkts_ids where pkts_ids.port = 31337] as p",
        name="intrusion",
    )

    # --- query 2: per-destination volume over sliding windows --------
    volume = cell.submit_continuous(
        "select p.dst, sum(p.size), count(*) "
        "from [select * from pkts_vol] as p "
        "group by p.dst window 500 slide 250",
        name="volume",
    )

    # --- query 3: traffic from blocked hosts (stream x table join) ---
    blocked = cell.submit_continuous(
        "select p.src, p.port from "
        "[select * from pkts_blk] as p "
        "join blocklist b on p.src = b.host",
        name="blocked",
    )

    # --- replay the packet capture through one replicating receptor --
    receptor = cell.add_receptor(
        "tap", ["pkts_ids", "pkts_vol", "pkts_blk"]
    )
    for row in network_packets(3_000, attack_rate=0.01, seed=8):
        receptor.channel.push(format_tuple(row))
    cell.run_until_quiescent()

    alerts = intrusion.fetch()
    print(f"intrusion alerts: {len(alerts)} (first 3: {alerts[:3]})")

    top = sorted(volume.fetch(), key=lambda r: -r[2])[:3]
    print("busiest destinations per window (dst, bytes, packets):")
    for window_id, dst, total, packets in top:
        print(f"  window {window_id}: {dst} {int(total)}B {packets}pkts")

    hits = blocked.fetch()
    print(f"blocklist hits: {len(hits)} (first 3: {hits[:3]})")

    ids_basket = cell.basket("pkts_ids")
    print(
        f"intrusion basket: {ids_basket.total_in} in, "
        f"{ids_basket.total_out} consumed by the predicate window, "
        f"{ids_basket.count} innocuous packets still buffered"
    )


if __name__ == "__main__":
    main()
