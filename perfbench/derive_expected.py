"""Record the outputs the correctness gates compare against.

* paper_replay: the SHA-256 of `verify-paper all --format json`.
* good_quivers: for every case and lambda the workload can draw, the
  solution count of find_good_quivers and the SHA-256 of the solutions'
  canonical JSON.

The recorded file, data/expected.json, was written from the unmodified seed
code; rerun this only to re-record after an intended change of output.

    PYTHONPATH=src python3 perfbench/derive_expected.py [--check]

With --check the stored file is compared against a fresh derivation instead
of being written.  The derivation takes about a minute.
"""

from __future__ import annotations

import json
import sys

import workloads as wl


def derive() -> dict:
    import quiverstokes as qs
    import quiverstokes.cli  # noqa: F401  (binds qs.cli and qs.serialize)

    code, text = wl.run_cli(qs, ["verify-paper", "all", "--format", "json"])
    if code != 0:
        raise SystemExit(f"verify-paper all exited with {code}")
    good = {}
    for kind, n, p in wl.GOOD_CASES:
        basis = getattr(qs.Basis, kind)(n)
        for lam in wl.GOOD_LAMBDAS:
            sols = qs.find_good_quivers(basis, lam, p)
            good[wl.good_case_key(kind, n, p, lam)] = wl.solutions_digest(qs, sols)
    return {"paper_replay": {"checks": wl.PAPER_CHECKS, "sha256": wl.sha256(text),
                             "bytes": len(text.encode())},
            "good_quivers": good}


def main(argv) -> int:
    text = json.dumps(derive(), indent=1) + "\n"
    path = wl.DATA / "expected.json"
    if "--check" in argv:
        same = path.read_text() == text
        print("stored expectations match" if same else "stored expectations differ")
        return 0 if same else 1
    path.write_text(text)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
