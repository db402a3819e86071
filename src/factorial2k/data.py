"""Access to the data files shipped with the package.

Bundled assets:

* ``ahluwalia.json`` — observed data from the Ahluwalia et al. (2006)
  2x2 smoking-cessation trial (nicotine gum x counseling type, N=755).
* ``cases_balanced_800.csv`` — 100 simulation populations of 800 units
  for the balanced-design coverage study, one row of 16 cell counts per
  case.
* ``study_balanced.json`` / ``study_imbalanced.json`` — ready-to-run
  coverage study configs.
* ``analysis_report.schema.json``, ``sensitivity_report.schema.json``,
  ``simulate_report.schema.json`` and ``gen_cases_report.schema.json`` —
  JSON schemas the reports of ``analyze``, ``sensitivity``, ``simulate``
  and ``gen-cases`` conform to.
"""

from importlib.resources import files
from pathlib import Path


def data_path(name: str) -> Path:
    """Filesystem path of a bundled data file."""
    path = Path(str(files("factorial2k").joinpath("data", name)))
    if not path.is_file():
        raise FileNotFoundError(f"no bundled data file named {name!r}")
    return path
