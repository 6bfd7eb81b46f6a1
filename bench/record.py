"""Record the expected outputs of the pool workloads into expected.json.

    python3 bench/record.py [--workload kernel-certify|embed-check]

kernel-certify records, per pool case, the truncation and locality radii
the certificates reach; embed-check records, per pool case, the exact
verdicts of its two random strip maps, and the verdict of the constructed
crossing pairs. The recorded values are the oracle that later versions of
the package are checked against, so re-record only when the pool itself
changes, never to make a failing check pass.
"""

import argparse
import json
import sys

from run import import_package


def record_kernel():
    import workloads as w
    cases = {}
    for c in range(w.KERNEL_POOL):
        trunc, local = w.KernelCertify.certify(c, w.kernel_window(c))
        if not (trunc.certified and local.certified):
            raise SystemExit(f"kernel-certify case {c} does not certify: "
                             f"{trunc}, {local}")
        cases[str(c)] = {"truncation": trunc.radius,
                         "locality": local.radius}
    return cases


def record_embed():
    import workloads as w
    from bandtile import simplicial
    crossing = {simplicial.is_embedding(simplicial.crossing_pair(D))[0]
                for D in (2, 3, 4)}
    if len(crossing) != 1:
        raise SystemExit(f"crossing pairs disagree: {crossing}")
    cases = {}
    for c in range(w.EMBED_POOL):
        full, low = w.embed_inputs(c)
        cases[str(c)] = {"full": simplicial.is_embedding(full)[0],
                         "low": simplicial.is_embedding(low)[0]}
    return {"crossing": crossing.pop(), "cases": cases}


RECORDERS = {"kernel-certify": record_kernel, "embed-check": record_embed}


def main(argv=None):
    p = argparse.ArgumentParser(prog="bench/record.py")
    p.add_argument("--workload", choices=sorted(RECORDERS))
    args = p.parse_args(argv)
    import_package()
    import workloads
    try:
        expected = workloads.load_expected()
    except FileNotFoundError:
        expected = {}
    for name in ([args.workload] if args.workload else sorted(RECORDERS)):
        expected[name] = RECORDERS[name]()
        print(f"recorded {name}", file=sys.stderr)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fp:
        json.dump(expected, fp, indent=1, sort_keys=True)
        fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
