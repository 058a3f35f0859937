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

ENGINE_VERSION = "eqgrow-0.1.0"

# test_golden_trajectory: the size list, a newline and the dumped rule file.
TRAJECTORY = {
    "list": "593f98a91dcb99acd667df95c516d886dadc2c93f232f0b2475cf2b6ea5527f3",
    "arith": "00e2b67bdb8f6a1136e85e46ec95cd2c4a6a395a95245c4028d0f1a4a1f79188",
}

# The benchmark's discover_long runs: the three size lists
# (bench/README.md cites it as ``discover_long.sizes``).
DISCOVER_LONG_SIZES = "cb9486544432801b83d31d000826f53d240dac601d679a955a1d8e4e54273049"

# The acceptance suite's 720-configuration sweep (seeds 0 and 1, 30
# epochs): its records, then its window-30 AIC-winner table
# (power_law 404, stretched_exp 170, saturating_pl 146).
SHORT_RANGE_RECORDS = "44ce3ce6ee1b7c41f54496fc8a8221e4cdf3aa7e5826c96a539334f503047858"
SHORT_RANGE_WINNERS_30 = "3875f969e8174057d382f93c767cb7c163d70d52d8498a7186837027ff8fd069"

# The five long-range runs (final sizes 4195, 3850, 3924, 3948, 3917).
LONG_RANGE_RECORDS = "069cf57b5a88063bfeeb1d677f3abcfd38ae7d94e04f4855eccccc01933e4d54"


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def records_digest(records) -> str:
    """Over each sweep record's key fields, engine version and sizes."""
    return digest([[r[k] for k in KEY_FIELDS] + [r["engine_version"], r["sizes"]]
                   for r in records])
