"""One timed job in a fresh interpreter.

    python3 bench/worker.py RESULT_JSON TRACE MODE PARAMS_JSON

MODE ``cli`` times one ``fermicorr.cli.main(argv)`` call; MODE ``hierarchy``
generates seeded random mixed states, then times connected_correlation,
geometric_discord and negativity on each, with one latency sample per block
of states (the mean time per state in that block). With TRACE 1 the layers are
traced (see spans.py) and the spans are written with the result. ``run.py``
starts this script with PYTHONPATH set to the checkout's ``src``.
"""
import json
import resource
import sys
import time

import fermicorr.cli as cli
from fermicorr import measures, states
from spans import Tracer


def run_cli(params):
    start = time.perf_counter()
    rc = cli.main(params["argv"])
    elapsed = time.perf_counter() - start
    return {"rc": rc, "elapsed": elapsed, "latencies": [elapsed]}


def run_hierarchy(params):
    seeds = range(params["first"], params["first"] + params["count"])
    rhos = [states.random_state(s, "mixed") for s in seeds]
    conn, discord, neg, lat = [], [], [], []
    block = params["block"]
    start = mark = time.perf_counter()
    for i, rho in enumerate(rhos, 1):
        conn.append(measures.connected_correlation(rho))
        discord.append(measures.geometric_discord(rho))
        neg.append(measures.negativity(rho))
        if i % block == 0:
            now = time.perf_counter()
            lat.append((now - mark) / block)
            mark = now
    return {"rc": 0, "elapsed": time.perf_counter() - start, "latencies": lat,
            "values": {"conn": conn, "discord": discord, "neg": neg}}


def main():
    result_path, trace, mode, params = sys.argv[1], sys.argv[2] == "1", sys.argv[3], json.loads(sys.argv[4])
    tracer = Tracer()
    if trace:
        tracer.install()
    out = {"cli": run_cli, "hierarchy": run_hierarchy}[mode](params)
    out.update(
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        spans=tracer.spans,
        absent=tracer.absent,
    )
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
