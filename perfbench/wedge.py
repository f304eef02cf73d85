"""Reproduce the TOTAL wedge on the default ``lan`` network.

    python3 perfbench/wedge.py [--seeds 0-9] [--network lan]

Each seed builds a fresh ``TOTAL:MBRSHIP:FRAG:NAK:COM`` group of 4
members on ``World(network="lan")`` (0.1% loss), lets every member cast
64 B messages at 50 per virtual second for 10 s, then runs 60 more
virtual seconds with no new casts.  A seed wedges
when casts stay queued in TOTAL's ``pending_out`` at the end: delivery
stopped for good although no member failed.  For each wedged seed the
script prints every member's delivered count, queue length and whom it
believes holds the token.  The same seeds never wedge on the lossless
``atm`` network (``--network atm``).
"""

from __future__ import annotations

import argparse
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from repro import World  # noqa: E402

STACK = "TOTAL:MBRSHIP:FRAG:NAK:COM"
MEMBERS = 4
RATE = 50.0  # casts per virtual second, per member
LOAD_S = 10.0
HOLD_S = 60.0


def run_seed(seed: int, network: str) -> dict:
    world = World(seed=seed, network=network, trace=False)
    handles = [world.process(f"n{i}").endpoint().join("wedge", stack=STACK)
               for i in range(MEMBERS)]
    world.run_while(lambda: all(h.view is not None and h.view.size == MEMBERS
                                for h in handles), timeout=30.0)
    rng = random.Random(seed)
    start = world.now
    for handle in handles:
        at = start
        while True:
            at += rng.expovariate(RATE)
            if at >= start + LOAD_S:
                break
            world.scheduler.call_at(at, handle.cast, b"x" * 64)
    world.run(LOAD_S + HOLD_S)
    state = []
    for i, handle in enumerate(handles):
        total = handle.focus("TOTAL").dump()
        state.append({"member": f"n{i}", "delivered": len(handle.delivery_log),
                      "pending_out": total["pending_out"],
                      "token_holder": total["token_holder"]})
    return {"seed": seed, "wedged": any(s["pending_out"] for s in state),
            "members": state}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--network", default="lan")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    wedged = []
    for seed in seeds:
        result = run_seed(seed, args.network)
        print(f"seed {seed}: {'WEDGED' if result['wedged'] else 'ok'}")
        if result["wedged"]:
            wedged.append(seed)
            for s in result["members"]:
                print(f"  {s['member']}: delivered {s['delivered']}, "
                      f"pending_out {s['pending_out']}, "
                      f"believes token at {s['token_holder']}")
    print(f"wedged seeds: {wedged}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
