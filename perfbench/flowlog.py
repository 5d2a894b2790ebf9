"""Synthetic flow log, the benchmark's stand-in for a captured packet trace.

The log is tab-separated with a header row and six fields::

    ts  src_ip  src_port  dst_ip  dst_port  bytes

About 3,000 clients (Zipf-weighted) send bursts to about 40 servers
(Zipf-weighted), so the source and destination ID sets are disjoint, which
makes the analyzer pick its column-wise uniform resampler. With a few
thousand distinct addresses the canonical IDs are four digits wide, so each
entry encodes to 10 bytes. Everything is drawn from the workload seed; the
program under test only ever sees the written file.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

CLIENTS = 3000
SERVERS = 40
MEAN_BURST = 6
SERVER_PORTS = (80, 443, 53, 123, 8080, 22)


def _dotted(addresses: np.ndarray) -> list[str]:
    return [f"{a >> 24}.{(a >> 16) & 255}.{(a >> 8) & 255}.{a & 255}"
            for a in addresses.tolist()]


def _zipf_weights(count: int, exponent: float) -> np.ndarray:
    w = np.arange(1, count + 1, dtype=np.float64) ** -exponent
    return w / w.sum()


def write_flow_log(path: Path, entries: int, seed: int) -> None:
    """Write ``entries`` flow records plus a header row to ``path``."""
    rng = np.random.default_rng([seed, 0xF10])
    bursts = rng.geometric(1.0 / MEAN_BURST, size=entries)
    count = int(np.searchsorted(np.cumsum(bursts), entries)) + 1
    bursts = bursts[:count]
    client = rng.choice(CLIENTS, size=count, p=_zipf_weights(CLIENTS, 1.1))
    server = rng.choice(SERVERS, size=count, p=_zipf_weights(SERVERS, 1.0))
    src = np.repeat(client, bursts)[:entries]
    dst = np.repeat(server, bursts)[:entries]

    client_ips = _dotted((10 << 24) | rng.choice(1 << 24, size=CLIENTS, replace=False))
    server_ips = _dotted((172 << 24) | (16 << 16)
                         | rng.choice(1 << 16, size=SERVERS, replace=False))
    server_ports = rng.choice(SERVER_PORTS, size=SERVERS)
    ts = 1_500_000_000.0 + np.cumsum(rng.exponential(0.002, size=entries))
    src_ports = rng.integers(1024, 65536, size=entries)
    sizes = rng.integers(40, 1501, size=entries)

    lines = ["ts\tsrc_ip\tsrc_port\tdst_ip\tdst_port\tbytes"]
    lines += [f"{t:.6f}\t{client_ips[s]}\t{sp}\t{server_ips[d]}\t{server_ports[d]}\t{b}"
              for t, s, sp, d, b in zip(ts.tolist(), src.tolist(), src_ports.tolist(),
                                        dst.tolist(), sizes.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
