"""Every pinned digest of the engine's output, in one table.

The pins belong to one engine version.  A change of the engine's semantics
bumps ENGINE_VERSION and re-pins every digest here in the same edit; a
change that leaves the engine's semantics alone leaves them all standing.
Each digest is a sha256 over JSON dumped with sorted keys, as the
benchmark computes its own.  No digest covers ``prng_id``, which names the
installed numpy version.
"""

import hashlib
import json

from eqgrow.engine import KEY_FIELDS

ENGINE_VERSION = "eqgrow-0.2.0"

# test_golden_trajectory: the size list, a newline and the dumped rule file.
TRAJECTORY = {
    "list": "52b263f49e02ad4fab6f70ca495df64fde3b942023024dcb8018c41bacdaa447",
    "arith": "00e2b67bdb8f6a1136e85e46ec95cd2c4a6a395a95245c4028d0f1a4a1f79188",
}

# The benchmark's discover_long runs: the three size lists
# (bench/README.md cites it as ``discover_long.sizes``).
DISCOVER_LONG_SIZES = "20040425c266213adef546a6e0cf685beff53afd546785abfa18461546200f97"

# The acceptance suite's 720-configuration sweep (seeds 0 and 1, 30
# epochs): its records, then its window-30 AIC-winner table
# (power_law 404, stretched_exp 176, saturating_pl 140).
SHORT_RANGE_RECORDS = "858340c69527d26044568158572a0fe46b41741354b23bf5ac3af1b788a2ce2a"
SHORT_RANGE_WINNERS_30 = "ed02c7b79737b04fcfa7bbd9460a939f2039324bbaed4c3fea3d418dc2a2ef71"

# The five long-range runs (final sizes 3852, 4123, 4020, 3930, 3884).
LONG_RANGE_RECORDS = "0ddb7cbf652cb9822258c1fd9d2b2ad8df6e34e4267fc49a208826bb8a6437f8"


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def records_digest(records) -> str:
    """Over each sweep record's key fields, engine version and sizes."""
    return digest([[r[k] for k in KEY_FIELDS] + [r["engine_version"], r["sizes"]]
                   for r in records])
